#include "cluster/cluster_runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/perf_model.hpp"
#include "runtime/distribution_manager.hpp"
#include "telemetry/registry.hpp"

namespace lobster::cluster {

namespace {

/// Relative compute cost per iteration of the models the paper evaluates;
/// scales ClusterConfig::t_train_s so mixed-model tenants desynchronize.
double model_train_scale(const std::string& model) {
  if (model == "alexnet") return 0.55;
  if (model == "resnet18") return 0.75;
  if (model == "vgg16") return 1.6;
  return 1.0;  // resnet50 and unknown models
}

data::SamplerConfig sampler_config_for(const JobSpec& spec, std::uint64_t dataset_size) {
  data::SamplerConfig config;
  config.num_samples = static_cast<std::uint32_t>(dataset_size);
  config.nodes = spec.nodes;
  config.gpus_per_node = spec.gpus_per_node;
  config.batch_size = spec.batch_size;
  config.seed = spec.sampler_seed;
  return config;
}

/// A round lasts as long as the slowest node's tier reads plus
/// preprocessing (core::flat_stage_times with one thread of each at full
/// capacity), or the training step if that is longer. `rates` carries the
/// PFS share this job gets.
double price_round(const std::vector<storage::TierBytes>& demands,
                   const core::FlatRates& rates, double t_train) {
  double slowest = 0.0;
  for (const auto& demand : demands) {
    const auto [load, preproc] = core::flat_stage_times(demand, rates, 1.0, 1.0, 1.0);
    slowest = std::max(slowest, std::max(t_train, load + preproc));
  }
  return slowest;
}

struct IsolatedRun {
  double run_s = 0.0;
  std::uint64_t pfs_reads = 0;
  Bytes pfs_bytes = 0;
  std::uint64_t digest = 0;
};

/// The job alone on its block: private KV tier, full PFS bandwidth, same
/// cursor delivery model and per-iteration cost model as the shared run —
/// slowdown isolates the effect of co-tenancy, and the digest is the
/// reference stream every checkpointed/preempted/resized run must
/// reproduce exactly.
IsolatedRun run_isolated(const JobSpec& spec, const data::SampleCatalog& catalog,
                         double t_train, ZeroPayloads& payloads) {
  const data::EpochSampler sampler(sampler_config_for(spec, catalog.size()));
  const std::uint32_t world = sampler.world_size();
  const std::uint32_t gpus = spec.gpus_per_node;

  cache::KvStore kv(4);
  cache::CacheDirectory directory(spec.nodes);
  KvBudgetArbiter arbiter(kv, 0, [](SampleId) { return kNeverIter; });
  std::vector<storage::TierBytes> demands(spec.nodes);

  IsolatedRun result;
  for (std::uint32_t epoch = 0; epoch < spec.epochs; ++epoch) {
    const auto& perm = sampler.epoch_permutation(epoch);
    std::uint64_t cursor = 0;
    while (cursor < perm.size()) {
      const std::uint64_t n = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(spec.batch_size) * world, perm.size() - cursor);
      for (auto& demand : demands) demand = {};
      for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t q = cursor + k;
        const SampleId sample = perm[q];
        const auto node = static_cast<NodeId>((q % world) / gpus);
        const Bytes size = catalog.sample_bytes(sample);
        auto& demand = demands[node];
        if (directory.holds(sample, node)) {
          demand.local += size;
        } else if (kv.get(sample).ok()) {
          demand.remote += size;
        } else {
          demand.pfs += size;
          ++result.pfs_reads;
          result.pfs_bytes += size;
          (void)arbiter.publish(sample, payloads.get(size), node, &directory);
        }
        result.digest = delivery_digest_advance(result.digest, sample);
      }
      result.run_s += price_round(demands, core::kFlatRates, t_train);
      cursor += n;
    }
  }
  return result;
}

}  // namespace

// ---- ZeroPayloads ---------------------------------------------------------

cache::KvStore::PayloadPtr ZeroPayloads::get(Bytes size) {
  std::weak_ptr<const std::vector<std::byte>>& slot = by_size_[size];
  cache::KvStore::PayloadPtr payload = slot.lock();
  if (payload == nullptr) {
    payload = std::make_shared<const std::vector<std::byte>>(size);
    slot = payload;
  }
  return payload;
}

// ---- JobWindowOracle ------------------------------------------------------

std::optional<data::Access> JobWindowOracle::next_access(SampleId sample,
                                                         IterId after) const {
  for (const data::Access& a : inner_.accesses(sample)) {
    if (a.iter == kNeverIter) continue;  // dropped by a partial final iteration
    const IterId at = offset_ + a.iter;
    if (at > after) {
      return data::Access{at, static_cast<NodeId>(block_.first + a.node), a.gpu};
    }
  }
  return std::nullopt;
}

std::optional<data::Access> JobWindowOracle::next_access_on_node(SampleId sample, NodeId node,
                                                                 IterId after) const {
  if (!block_.contains(node)) return std::nullopt;
  const NodeId local = static_cast<NodeId>(node - block_.first);
  for (const data::Access& a : inner_.accesses(sample)) {
    if (a.iter == kNeverIter || a.node != local) continue;
    const IterId at = offset_ + a.iter;
    if (at > after) return data::Access{at, node, a.gpu};
  }
  return std::nullopt;
}

IterId JobWindowOracle::reuse_distance_on_node(SampleId sample, NodeId node,
                                               IterId now) const {
  const auto a = next_access_on_node(sample, node, now);
  return a.has_value() ? a->iter - now : kNeverIter;
}

std::uint32_t JobWindowOracle::remaining_uses_on_node(SampleId sample, NodeId node,
                                                      IterId after) const {
  if (!block_.contains(node)) return 0;
  const NodeId local = static_cast<NodeId>(node - block_.first);
  std::uint32_t uses = 0;
  for (const data::Access& a : inner_.accesses(sample)) {
    if (a.iter == kNeverIter || a.node != local) continue;
    if (offset_ + a.iter > after) ++uses;
  }
  return uses;
}

bool JobWindowOracle::needed_by_other_node(SampleId sample, NodeId node,
                                           IterId after) const {
  for (const data::Access& a : inner_.accesses(sample)) {
    if (a.iter == kNeverIter) continue;
    const NodeId global = static_cast<NodeId>(block_.first + a.node);
    if (global != node && offset_ + a.iter > after) return true;
  }
  return false;
}

// ---- ClusterRuntime -------------------------------------------------------

struct ClusterRuntime::RunningJob {
  JobId id = kInvalidJob;
  cache::NamespaceId ns = 0;
  std::uint64_t fingerprint = 0;
  NodeBlock block;
  std::shared_ptr<const data::SampleCatalog> catalog;
  /// Built at the SPEC width: the epoch permutation is width-independent,
  /// and the oracle's access pattern only feeds eviction heuristics.
  std::unique_ptr<data::EpochSampler> sampler;
  std::unique_ptr<data::FutureAccessOracle> oracle;
  std::unique_ptr<JobWindowOracle> window;

  std::uint32_t epochs = 0;
  std::uint64_t dataset_size = 0;  ///< |D|
  std::uint32_t gpus = 1;
  std::uint32_t batch = 1;
  double t_train = 0.0;

  // Progress cursor (width-invariant; see header): perm[0, cursor) of
  // `epoch` fully delivered, digest folded over every sample so far.
  std::uint32_t epoch = 0;
  std::uint64_t cursor = 0;
  std::uint64_t digest = 0;
  std::uint64_t last_n = 0;  ///< window collect_demands priced this round

  std::vector<storage::TierBytes> demands;  ///< per local node, refilled every round
  std::uint64_t round_delivered = 0;  ///< samples delivered this round

  bool done() const noexcept { return epoch >= epochs; }
};

ClusterRuntime::ClusterRuntime(ClusterConfig config)
    : config_(config),
      kv_(16),
      directory_(config.nodes),
      arbiter_(kv_, config.kv_budget, [this](SampleId key) { return imminence(key); }),
      manager_(config.nodes, config.policy),
      fairness_(config.starvation_rounds) {
  manager_.set_preemption_policy(config_.preemption);
  // The crash-consistency point: the manager fires this before releasing a
  // victim's block, while the RunningJob and its residency are still live.
  manager_.set_preempt_hook(
      [this](JobId id, std::uint64_t round) { checkpoint_job(id, round); });
}

ClusterRuntime::~ClusterRuntime() = default;

JobId ClusterRuntime::submit(JobSpec spec) {
  if (ran_) throw std::logic_error("ClusterRuntime::submit: run() already started");
  const std::uint64_t arrival = spec.arrival_round;
  const JobId id = manager_.submit(std::move(spec), arrival);
  JobOutcome outcome;
  outcome.id = id;
  outcome.name = manager_.record(id).spec.name;
  outcome.state = manager_.record(id).state;
  outcome.submit_round = arrival;
  outcomes_.push_back(std::move(outcome));
  return id;
}

std::shared_ptr<const data::SampleCatalog> ClusterRuntime::catalog_for(
    const JobSpec& spec, std::uint64_t fingerprint) {
  auto& slot = catalogs_[fingerprint];
  if (slot == nullptr) {
    slot = std::make_shared<const data::SampleCatalog>(spec.dataset, spec.dataset_seed);
  }
  return slot;
}

bool ClusterRuntime::budget_gate(const JobSpec& spec) {
  if (config_.kv_budget == 0) return true;
  const std::uint64_t fingerprint = dataset_fingerprint(spec);
  // A live namespace means the dataset is already (being) staged; admitting
  // another job over it adds no KV footprint.
  for (const auto& [id, job] : active_) {
    if (job->fingerprint == fingerprint) return true;
  }
  // A preempted job's namespace stays acquired (warm residency waiting for
  // the resume) — its dataset is staged even though no RunningJob exists.
  for (const JobId id : manager_.preempted()) {
    if (dataset_fingerprint(manager_.record(id).spec) == fingerprint) return true;
  }
  const Bytes need = catalog_for(spec, fingerprint)->total_bytes();
  // A dataset the budget can never hold won't fit better later: admit it
  // and let the arbiter spill — queueing forever would be starvation.
  if (need >= config_.kv_budget) return true;
  return arbiter_.bytes_tracked() + need <= config_.kv_budget;
}

void ClusterRuntime::rebuild_merged(cache::NamespaceId ns) {
  NamespaceOracles oracles;
  for (const auto& [id, job] : active_) {
    if (job->ns == ns && job->window != nullptr) oracles.members.push_back(job->window.get());
  }
  if (oracles.members.empty()) {
    merged_.erase(ns);
    return;
  }
  oracles.merged = std::make_unique<data::MergedAccessOracle>(oracles.members);
  merged_[ns] = std::move(oracles);
}

IterId ClusterRuntime::imminence(SampleId key) const {
  const auto it = merged_.find(cache::namespace_of(key));
  if (it == merged_.end() || it->second.merged == nullptr) return kNeverIter;
  // JobWindowOracle reports job iteration i at cluster time admit+i+1, so
  // strictly-after round_ includes the current round's accesses at distance
  // (reported - round_ - 1) == 0.
  const auto access = it->second.merged->next_access(cache::sample_of(key), round_);
  return access.has_value() ? access->iter - round_ - 1 : kNeverIter;
}

void ClusterRuntime::start_job(JobId id, std::uint64_t round) {
  const auto parked = checkpoints_.find(id);
  if (parked != checkpoints_.end()) {
    // Resume: rebuild from the checkpoint cut at preemption, through the
    // real wire path.
    const std::vector<std::byte> bytes = std::move(parked->second);
    checkpoints_.erase(parked);
    restore_job(id, round, bytes);
    return;
  }

  JobRecord& record = manager_.record_mutable(id);
  auto job = std::make_unique<RunningJob>();
  job->id = id;
  job->fingerprint = dataset_fingerprint(record.spec);
  job->catalog = catalog_for(record.spec, job->fingerprint);
  job->ns = registry_.acquire(job->fingerprint);
  record.ns = job->ns;
  job->block = record.block;

  job->sampler =
      std::make_unique<data::EpochSampler>(sampler_config_for(record.spec, job->catalog->size()));
  job->oracle = std::make_unique<data::FutureAccessOracle>(
      *job->sampler, std::max<std::uint32_t>(1, record.spec.oracle_window_epochs));
  job->window = std::make_unique<JobWindowOracle>(*job->oracle, round, job->block);
  job->epochs = record.spec.epochs;
  job->dataset_size = job->catalog->size();
  job->gpus = record.spec.gpus_per_node;
  job->batch = record.spec.batch_size;
  job->t_train = config_.t_train_s * model_train_scale(record.spec.model);
  job->demands.resize(record.block.count);

  JobOutcome& outcome = outcomes_[id];
  outcome.ns = job->ns;
  // Width-independent: every epoch delivers the full permutation (the
  // trailing partial round carries the remainder).
  outcome.samples_expected = static_cast<std::uint64_t>(job->epochs) * job->dataset_size;
  if (registry_.refcount(job->ns) > 1) {
    outcome.shared_namespace = true;
    for (const auto& [other_id, other] : active_) {
      if (other->ns == job->ns) outcomes_[other_id].shared_namespace = true;
    }
  }

  const cache::NamespaceId ns = job->ns;
  active_.emplace(id, std::move(job));
  rebuild_merged(ns);
}

std::vector<std::byte> ClusterRuntime::cut_checkpoint(RunningJob& job) {
  const JobRecord& record = manager_.record(job.id);
  const JobOutcome& outcome = outcomes_[job.id];

  JobCheckpoint checkpoint;
  checkpoint.job_id = job.id;
  checkpoint.name = record.spec.name;
  checkpoint.dataset_fingerprint = job.fingerprint;
  checkpoint.sampler_seed = record.spec.sampler_seed;
  checkpoint.epoch = job.epoch;
  checkpoint.cursor = job.cursor;
  checkpoint.delivered_total = outcome.samples_delivered;
  checkpoint.delivery_digest = job.digest;
  checkpoint.width = job.block.count;
  checkpoint.gpus_per_node = record.spec.gpus_per_node;
  checkpoint.batch_size = record.spec.batch_size;
  // The cluster sim runs the static split; a live executor would export its
  // FeedbackBalancer state here (test_checkpoint round-trips that path).
  checkpoint.quotas.assign(
      static_cast<std::size_t>(job.block.count) * record.spec.gpus_per_node,
      record.spec.batch_size);

  std::vector<SampleId> samples;
  for (const KvBudgetArbiter::ManifestEntry& entry : arbiter_.namespace_manifest(job.ns)) {
    if (!job.block.contains(entry.holder)) continue;  // held by a co-tenant's block
    checkpoint.residency.push_back(
        {cache::sample_of(entry.key),
         static_cast<std::uint16_t>(entry.holder - job.block.first), entry.bytes});
    samples.push_back(cache::sample_of(entry.key));
    // The block is being vacated: its directory residency goes with it. The
    // KV entry itself survives (warm working set, evictable under budget
    // pressure) until restore re-homes it.
    directory_.remove(entry.key, entry.holder);
  }
  checkpoint.residency_checksum = runtime::inventory_checksum(samples);

  std::vector<std::byte> bytes = serialize(checkpoint);
  ++stat_checkpoints_;
  stat_checkpoint_bytes_ += bytes.size();
  return bytes;
}

void ClusterRuntime::checkpoint_job(JobId id, std::uint64_t /*round*/) {
  const auto it = active_.find(id);
  if (it == active_.end()) {
    throw std::logic_error("ClusterRuntime: preempt hook fired for a job with no RunningJob");
  }
  RunningJob& job = *it->second;
  const cache::NamespaceId ns = job.ns;
  checkpoints_[id] = cut_checkpoint(job);
  // The namespace stays acquired: the preempted job still claims its
  // dataset, so the registry must not recycle the id (and budget_gate must
  // keep treating the dataset as staged).
  active_.erase(it);
  rebuild_merged(ns);
}

void ClusterRuntime::restore_job(JobId id, std::uint64_t round,
                                 const std::vector<std::byte>& bytes) {
  auto parsed = deserialize(bytes);
  if (!parsed.ok()) {
    // In-memory checkpoints cannot rot; a parse failure here is a format bug.
    throw std::runtime_error("ClusterRuntime::restore_job: " + parsed.status().to_string());
  }
  const JobCheckpoint& checkpoint = parsed.value();

  JobRecord& record = manager_.record_mutable(id);
  auto job = std::make_unique<RunningJob>();
  job->id = id;
  job->fingerprint = checkpoint.dataset_fingerprint;
  job->catalog = catalog_for(record.spec, job->fingerprint);
  job->ns = record.ns;  // namespace stayed acquired across the preemption
  job->block = record.block;

  job->sampler =
      std::make_unique<data::EpochSampler>(sampler_config_for(record.spec, job->catalog->size()));
  job->oracle = std::make_unique<data::FutureAccessOracle>(
      *job->sampler, std::max<std::uint32_t>(1, record.spec.oracle_window_epochs));
  // Lift the oracle back onto the cluster clock: the job has ~est_iter
  // spec-width iterations behind it, so its next access should be reported
  // around `round + 1` — i.e. an effective admit round of round - est_iter.
  const std::uint32_t ipe = job->sampler->iterations_per_epoch();
  const std::uint64_t per_iter =
      static_cast<std::uint64_t>(record.spec.batch_size) * job->sampler->world_size();
  const std::uint64_t est_iter =
      static_cast<std::uint64_t>(checkpoint.epoch) * ipe +
      std::min<std::uint64_t>(per_iter != 0 ? checkpoint.cursor / per_iter : 0, ipe);
  const std::uint64_t effective_admit = round > est_iter ? round - est_iter : 0;
  job->window = std::make_unique<JobWindowOracle>(*job->oracle, effective_admit, job->block);
  if (checkpoint.epoch < record.spec.epochs &&
      checkpoint.epoch != job->oracle->first_epoch()) {
    job->oracle->rebase(checkpoint.epoch);
  }

  job->epochs = record.spec.epochs;
  job->dataset_size = job->catalog->size();
  job->gpus = record.spec.gpus_per_node;
  job->batch = record.spec.batch_size;
  job->t_train = config_.t_train_s * model_train_scale(record.spec.model);
  job->demands.resize(record.block.count);
  job->epoch = checkpoint.epoch;
  job->cursor = checkpoint.cursor;
  job->digest = checkpoint.delivery_digest;

  // Replay the residency manifest onto the (possibly different) block:
  // entries the arbiter kept warm are re-homed, entries evicted while the
  // job was preempted are lost (they will re-fetch from the PFS).
  for (const ResidencyEntry& entry : checkpoint.residency) {
    const SampleId key = cache::make_namespaced_key(job->ns, entry.sample);
    const auto holder = static_cast<NodeId>(
        job->block.first + entry.local_holder % job->block.count);
    if (arbiter_.rehome(key, holder)) {
      directory_.add(key, holder);
      ++stat_restored_;
    } else {
      ++stat_lost_;
    }
  }

  const cache::NamespaceId ns = job->ns;
  active_.emplace(id, std::move(job));
  rebuild_merged(ns);
}

void ClusterRuntime::try_elastic_resize(std::uint64_t round) {
  if (!config_.elastic_resize) return;
  for (JobOutcome& outcome : outcomes_) {
    const auto it = active_.find(outcome.id);
    if (it == active_.end()) continue;
    RunningJob& job = *it->second;
    const JobSpec& spec = manager_.record(job.id).spec;
    if (!spec.elastic()) continue;
    // Resize only at an epoch boundary of a job with work left — the same
    // consistency point checkpoints use, so the cursor cut is exact.
    if (job.done() || job.cursor != 0 || job.epoch == 0) continue;

    const std::uint16_t current = job.block.count;
    bool pressure = !manager_.preempted().empty();
    if (!pressure) {
      for (const JobId queued : manager_.queued()) {
        if (manager_.record(queued).submit_round <= round) {
          pressure = true;
          break;
        }
      }
    }
    std::uint16_t target = current;
    if (pressure && current > spec.width_min()) {
      // Someone is waiting: give back everything above the floor.
      target = spec.width_min();
    } else if (!pressure && current < spec.width_max() && manager_.free_nodes() > 0) {
      // Idle capacity and an empty queue: spread out.
      target = std::min<std::uint16_t>(
          spec.width_max(), static_cast<std::uint16_t>(current + manager_.free_nodes()));
    }
    if (target == current) continue;

    // Checkpoint-resize-restore: the same cut/restore path a preemption
    // takes, so the delivery stream is provably unaffected by the resize.
    const std::vector<std::byte> bytes = cut_checkpoint(job);
    const cache::NamespaceId ns = job.ns;
    active_.erase(it);
    rebuild_merged(ns);
    const auto placed = manager_.resize(outcome.id, round, target);
    restore_job(outcome.id, round, bytes);  // record.block is new (or old on failure)
    if (placed.has_value()) {
      if (target > current) {
        ++outcome.grows;
      } else {
        ++outcome.shrinks;
      }
    }
  }
}

void ClusterRuntime::finish_job(RunningJob& job, std::uint64_t round) {
  manager_.finish(job.id, round);
  const JobRecord& record = manager_.record(job.id);
  JobOutcome& outcome = outcomes_[job.id];
  outcome.delivery_digest = job.digest;
  outcome.final_width = job.block.count;

  auto& registry = telemetry::MetricRegistry::instance();
  const std::string prefix = job_metric_prefix(record.spec.name);
  registry.counter(prefix + "pfs_reads").add(outcome.pfs_reads);
  registry.counter(prefix + "kv_hits").add(outcome.kv_hits);
  registry.counter(prefix + "samples_delivered").add(outcome.samples_delivered);
  LOBSTER_METRIC_COUNT("cluster.pfs_reads", outcome.pfs_reads);
  LOBSTER_METRIC_COUNT("cluster.kv_hits", outcome.kv_hits);
}

void ClusterRuntime::collect_demands(RunningJob& job) {
  JobOutcome& outcome = outcomes_[job.id];
  for (auto& demand : job.demands) demand = {};
  job.round_delivered = 0;

  const auto& perm = job.sampler->epoch_permutation(job.epoch);
  const std::uint32_t world = static_cast<std::uint32_t>(job.block.count) * job.gpus;
  const std::uint64_t n =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(job.batch) * world,
                              perm.size() - job.cursor);
  job.last_n = n;

  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint64_t q = job.cursor + k;
    const SampleId sample = perm[q];
    // Strided shard ownership at the CURRENT width: perm index q belongs to
    // flat rank q mod W, i.e. local node (q mod W) / gpus — identical to the
    // static sampler's node_batch partition when width == spec width.
    const auto local_node = static_cast<std::uint16_t>((q % world) / job.gpus);
    const NodeId global = static_cast<NodeId>(job.block.first + local_node);
    auto& demand = job.demands[local_node];
    const SampleId key = cache::make_namespaced_key(job.ns, sample);
    const Bytes size = job.catalog->sample_bytes(sample);
    if (directory_.holds(key, global)) {
      demand.local += size;
      ++outcome.local_hits;
    } else if (kv_.get(key).ok()) {
      // Cluster-tier hit: published earlier by this job's peers or by
      // another job over the same dataset (the dedup win).
      demand.remote += size;
      ++outcome.kv_hits;
    } else {
      demand.pfs += size;
      ++outcome.pfs_reads;
      outcome.pfs_bytes += size;
      // Best-effort: a rejected publish (kOverflow: room would need an
      // imminent victim) still delivers the sample, just uncached.
      (void)arbiter_.publish(key, payloads_.get(size), global, &directory_);
    }
    // Exactly-once delivery log: folded in permutation order, which is the
    // same order at every width — the digest a resumed run must extend
    // seamlessly.
    job.digest = delivery_digest_advance(job.digest, sample);
  }
  outcome.samples_delivered += n;
  job.round_delivered = n;
}

ClusterResult ClusterRuntime::run() {
  if (ran_) throw std::logic_error("ClusterRuntime::run: already ran");
  ran_ = true;

  std::vector<double> submit_clock(outcomes_.size(), 0.0);
  std::vector<double> admit_clock(outcomes_.size(), 0.0);

  ClusterResult result;
  std::size_t open = 0;
  for (JobOutcome& outcome : outcomes_) {
    if (outcome.state == JobState::kRejected) continue;
    ++open;
    if (config_.run_isolated_baselines) {
      const JobSpec& spec = manager_.record(outcome.id).spec;
      const auto catalog = catalog_for(spec, dataset_fingerprint(spec));
      const IsolatedRun isolated =
          run_isolated(spec, *catalog, config_.t_train_s * model_train_scale(spec.model),
                       payloads_);
      outcome.isolated_s = isolated.run_s;
      outcome.isolated_pfs_reads = isolated.pfs_reads;
      outcome.isolated_digest = isolated.digest;
      result.isolated_pfs_reads_sum += isolated.pfs_reads;
      fairness_.set_isolated_baseline(outcome.id, outcome.name, isolated.run_s);
    }
  }

  while (open > 0) {
    if (round_ > config_.max_rounds) {
      throw std::runtime_error("ClusterRuntime::run: exceeded max_rounds — scheduling livelock?");
    }
    for (JobOutcome& outcome : outcomes_) {
      if (outcome.submit_round == round_ && outcome.state != JobState::kRejected) {
        submit_clock[outcome.id] = clock_s_;
      }
    }
    // Elastic pass first: shrinking at the epoch boundary frees nodes the
    // admission pass below can hand to waiters in the SAME round.
    try_elastic_resize(round_);
    const auto admitted =
        manager_.admit(round_, [this](const JobSpec& spec) { return budget_gate(spec); });
    for (const JobId id : admitted) {
      // queue_wait_s prices the FIRST admission only; a resume (parked
      // checkpoint present) keeps the original admit clock.
      if (checkpoints_.find(id) == checkpoints_.end()) admit_clock[id] = clock_s_;
      start_job(id, round_);
    }
    fairness_.observe_round(manager_, round_);
    result.peak_live_namespaces =
        std::max(result.peak_live_namespaces, registry_.live_namespaces());

    // One lockstep delivery round per running job. Pass 1 walks the shared
    // tier (publishes included) and classifies demand; the PFS split needs
    // every job's demand before any job's time can be priced.
    std::vector<RunningJob*> executing;
    std::vector<RunningJob*> finished;
    for (JobOutcome& outcome : outcomes_) {
      const auto it = active_.find(outcome.id);
      if (it == active_.end()) continue;
      RunningJob& job = *it->second;
      if (job.done()) {
        finished.push_back(&job);  // zero-epoch job: finishes untouched
        continue;
      }
      if (job.cursor == 0 && job.epoch != job.oracle->first_epoch()) {
        job.oracle->rebase(job.epoch);
      }
      collect_demands(job);
      executing.push_back(&job);
    }
    std::uint32_t pfs_jobs = 0;
    for (const RunningJob* job : executing) {
      for (const auto& demand : job->demands) {
        if (demand.pfs > 0) {
          ++pfs_jobs;
          break;
        }
      }
    }
    // The PFS is divided evenly among the jobs that read it this round.
    core::FlatRates rates = core::kFlatRates;
    rates.pfs_bps /= std::max<std::uint32_t>(pfs_jobs, 1);

    double round_time = 0.0;
    for (RunningJob* job : executing) {
      round_time = std::max(round_time, price_round(job->demands, rates, job->t_train));
    }
    clock_s_ += round_time;

    for (RunningJob* job : executing) {
      job->cursor += job->last_n;
      if (job->cursor >= job->dataset_size) {
        job->cursor = 0;
        ++job->epoch;
      }
      JobRecord& record = manager_.record_mutable(job->id);
      ++record.iterations_done;
      ++outcomes_[job->id].iterations;
      fairness_.observe_delivery(job->id, record.spec.name, job->round_delivered,
                                 price_round(job->demands, rates, job->t_train));
      if (job->done()) finished.push_back(job);
    }
    for (RunningJob* job : finished) {
      finish_job(*job, round_);
      fairness_.on_finish(manager_.record(job->id), submit_clock[job->id],
                          admit_clock[job->id], clock_s_);
      const cache::NamespaceId ns = job->ns;
      const JobId id = job->id;
      active_.erase(id);
      rebuild_merged(ns);
      if (registry_.release(ns)) {
        // Last job over this dataset: drop its cached payloads so the
        // namespace id can be recycled without aliasing stale entries.
        arbiter_.drop_namespace(ns, &directory_);
      }
      --open;
    }
    ++round_;
  }

  for (JobOutcome& outcome : outcomes_) {
    const JobRecord& record = manager_.record(outcome.id);
    outcome.state = record.state;
    outcome.admit_round = record.admit_round;
    outcome.finish_round = record.finish_round;
    outcome.queue_wait_rounds = record.queue_wait_rounds();
    outcome.total_wait_rounds = record.total_wait_rounds;
    outcome.preemptions = record.preempt_count;
    outcome.resizes = record.resize_count;
    if (fairness_.known(outcome.id)) {
      const auto& fair = fairness_.job(outcome.id);
      outcome.queue_wait_s = fair.queue_wait_s;
      outcome.turnaround_s = fair.turnaround_s;
      outcome.slowdown = fair.slowdown;
      outcome.starved = fair.starved;
    }
    if (config_.run_isolated_baselines && outcome.state == JobState::kFinished) {
      outcome.digest_match = outcome.delivery_digest == outcome.isolated_digest;
      if (outcome.digest_match) {
        ++result.digest_matches;
      } else {
        ++result.digest_mismatches;
      }
    }
    result.total_pfs_reads += outcome.pfs_reads;
    result.total_pfs_bytes += outcome.pfs_bytes;
    result.total_kv_hits += outcome.kv_hits;
  }
  result.jobs = outcomes_;
  result.rounds = round_;
  result.makespan_s = clock_s_;
  result.starvation_events = fairness_.starvation_events();
  result.max_slowdown = fairness_.max_slowdown();
  result.preemptions = manager_.preemptions();
  result.resumes = manager_.resumes();
  result.resizes = manager_.resizes();
  result.checkpoints_cut = stat_checkpoints_;
  result.checkpoint_bytes = stat_checkpoint_bytes_;
  result.residency_restored = stat_restored_;
  result.residency_lost = stat_lost_;
  result.arbiter = arbiter_.stats();
  result.kv = kv_.stats();
  return result;
}

}  // namespace lobster::cluster
