// caya_layers — the benchmark's traced run: per-layer timings and counts.
//
//   caya_layers --workload NAME --seed N --seconds S --jobs N
//               --trials-per-cell N --ga-population N --ga-gens N
//               --serve-flows N --serve-flip N --fuzz-iters N
//
// Every span is recorded here, around calls into the library's public API;
// nothing inside src/ is instrumented. The workload picks the trial cells
// (country, protocol, strategy, link profile, GFW regime) whose trials feed
// the eval, util, netsim, censor and geneva-engine phases; the GA, serve and
// fuzz phases run the configurations of the evolve, serve-flip and fuzz-all
// workloads. Each phase gets a fixed share of --seconds and always runs at
// least one whole unit. Prints one JSON object on stdout:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// where every metric is {"value": number, "unit": string}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eval/censor_set.h"
#include "eval/env_pool.h"
#include "eval/rates.h"
#include "eval/strategies.h"
#include "fuzz/fuzzer.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "geneva/engine.h"
#include "geneva/fitness_cache.h"
#include "geneva/ga.h"
#include "geneva/parser.h"
#include "serve/orchestrator.h"

namespace caya {
namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile (p in (0, 1]) of a sample.
double percentile_of(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t index = static_cast<std::size_t>(rank);
  return v[std::clamp<std::size_t>(index, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Results of timed calls land here, so the calls cannot be optimized away.
volatile std::uint64_t g_sink = 0;

/// A phase's share of the run: loops run whole units until it has elapsed.
class Slice {
 public:
  explicit Slice(double seconds)
      : end_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds))) {}
  [[nodiscard]] bool done() const { return Clock::now() >= end_; }

 private:
  Clock::time_point end_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t jobs = 1;
  std::size_t trials_per_cell = 100;
  std::size_t ga_population = 40;
  std::size_t ga_gens = 6;
  std::size_t serve_flows = 2000;
  std::size_t serve_flip = 600;
  std::size_t fuzz_iters = 500;
};

/// Each phase draws its seeds from its own block: [base, base + 10^8).
enum class Phase { kGa = 1, kTrials, kFill, kRng, kCensor, kEngine, kServe, kFuzz,
                   kEfficiency, kOverhead };

std::uint64_t phase_seed(const Options& opt, Phase phase) {
  return opt.seed * 1'000'000'000 +
         static_cast<std::uint64_t>(phase) * 100'000'000;
}

/// Metric sink that prints the result object.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, std::string(unit)));
  }
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::size_t n = 1) {
    failed_ += n;
    if (failures_.size() < 20) failures_.push_back(why);
  }
  void print() const {
    for (const std::string& why : failures_) {
      std::fprintf(stderr, "caya_layers: check failed: %s\n", why.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false", attempted_, failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                  metrics_[i].second.first, metrics_[i].second.second.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

const char* country_key(Country c) {
  switch (c) {
    case Country::kChina: return "china";
    case Country::kIndia: return "india";
    case Country::kIran: return "iran";
    case Country::kKazakhstan: return "kazakhstan";
    case Country::kTurkmenistan: return "turkmenistan";
  }
  return "unknown";
}

/// One kind of trial a workload runs.
struct Cell {
  Country country = Country::kChina;
  AppProtocol protocol = AppProtocol::kHttp;
  std::optional<Strategy> strategy;
  ImpairmentProfile profile = ImpairmentProfile::kClean;
  GfwRegime regime = GfwRegime::kEra2019;

  [[nodiscard]] Environment::Config config(std::uint64_t seed) const {
    Environment::Config c;
    c.country = country;
    c.protocol = protocol;
    c.seed = seed;
    c.gfw_regime = regime;
    apply_profile(profile, c);
    return c;
  }
  [[nodiscard]] ConnectionOptions connection() const {
    ConnectionOptions o;
    o.server_strategy = strategy;
    return o;
  }
};

std::optional<Strategy> published(int id) {
  if (id == 0) return std::nullopt;
  return parsed_strategy(id);
}

/// The Table 2 grid `caya rates` runs in the table2-rates workload.
std::vector<Cell> table2_cells() {
  const std::vector<std::pair<Country, std::vector<int>>> rows = {
      {Country::kChina, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {Country::kIndia, {0, 8}},
      {Country::kIran, {0, 8}},
      {Country::kTurkmenistan, {0, 8}},
      {Country::kKazakhstan, {8, 9, 10, 11}},
  };
  std::vector<Cell> cells;
  for (const auto& [country, ids] : rows) {
    for (const int id : ids) {
      for (const AppProtocol protocol : all_protocols()) {
        cells.push_back({country, protocol, published(id),
                         ImpairmentProfile::kClean, GfwRegime::kEra2019});
      }
    }
  }
  return cells;
}

std::vector<Cell> workload_cells(const std::string& workload,
                                 const std::vector<std::string>& ga_seen) {
  if (workload == "table2-rates" || workload == "fuzz-all") {
    return table2_cells();
  }
  if (workload == "run-lossy") {
    return {{Country::kChina, AppProtocol::kHttp, published(6),
             ImpairmentProfile::kLossy, GfwRegime::kEra2019}};
  }
  if (workload == "evolve") {
    std::vector<Cell> cells;
    for (const std::string& dsl : ga_seen) {
      cells.push_back({Country::kChina, AppProtocol::kHttp,
                       parse_strategy(dsl), ImpairmentProfile::kClean,
                       GfwRegime::kEra2019});
    }
    return cells;
  }
  if (workload == "serve-flip") {
    std::vector<Cell> cells;
    for (const GfwRegime regime :
         {GfwRegime::kEra2019, GfwRegime::kEraHttpsResync}) {
      for (const int id : {7, 6, 2, 0}) {
        cells.push_back({Country::kChina, AppProtocol::kHttp, published(id),
                         ImpairmentProfile::kClean, regime});
      }
    }
    return cells;
  }
  throw std::invalid_argument("unknown workload \"" + workload + "\"");
}

/// A packet as a censor hop (kCensorSaw) or the server (kServerSent) saw it.
struct Seen {
  Time at = 0;
  Direction dir = Direction::kClientToServer;
  Packet packet;
};
using Sequence = std::vector<Seen>;

/// Injector owned by the benchmark: discards injections and reports the
/// captured packet's timestamp as the current time.
class ReplayInjector : public Injector {
 public:
  void inject(Packet, Direction) override {}
  [[nodiscard]] Time now() const override { return at; }
  Time at = 0;
};

// ---- phases ----------------------------------------------------------------

struct GaPhase {
  std::vector<std::string> seen;  // distinct strategies scored (<= 64)
};

GaPhase run_ga_phase(const Options& opt, double seconds, Report& report) {
  GaPhase phase;
  std::set<std::string> seen_set;
  double fitness_s = 0.0;
  double breed_s = 0.0;
  std::size_t hits = 0;
  std::size_t evaluations = 0;
  std::size_t campaigns = 0;
  const Slice slice(seconds);
  do {
    const std::uint64_t seed = phase_seed(opt, Phase::kGa) + campaigns * 1000;
    auto quarantine = std::make_shared<Quarantine>(3);
    const FitnessFn inner = make_supervised_fitness(
        Country::kChina, AppProtocol::kHttp, 20, seed, quarantine);
    double fitness_ns = 0.0;
    std::vector<std::string> scored;
    // jobs = 1: fitness calls run one at a time, so fitness + breeding add
    // up to the campaign's wall time.
    FitnessFn timed = [&](const Strategy& s) {
      const auto t0 = Clock::now();
      const double f = inner(s);
      fitness_ns += ns_between(t0, Clock::now());
      scored.push_back(s.to_string());
      return f;
    };
    GaConfig config;
    config.population_size = opt.ga_population;
    config.generations = opt.ga_gens;
    config.jobs = 1;
    GeneticAlgorithm ga(GeneConfig{}, config, std::move(timed), Rng(seed),
                        Logger::silent());
    ga.set_fitness_cache(std::make_shared<FitnessCache>(
        fitness_cache_digest(Country::kChina, AppProtocol::kHttp, 20, seed)));
    const auto t0 = Clock::now();
    (void)ga.run();
    const double total_ns = ns_between(t0, Clock::now());
    fitness_s += fitness_ns / 1e9;
    breed_s += (total_ns - fitness_ns) / 1e9;
    double best = -1e300;
    for (const GenerationStats& gen : ga.history()) {
      hits += gen.cache_hits;
      evaluations += gen.evaluations;
      report.attempt(gen.cache_hits + gen.evaluations);
      if (gen.best_fitness < best) {
        report.fail("GA best fitness fell at generation " +
                    std::to_string(gen.generation) + " (seed " +
                    std::to_string(seed) + ")");
      }
      best = std::max(best, gen.best_fitness);
    }
    if (quarantine->size() > 0) {
      report.fail("GA quarantined strategies", quarantine->size());
    }
    for (std::string& dsl : scored) {
      if (phase.seen.size() < 64 && seen_set.insert(dsl).second) {
        phase.seen.push_back(std::move(dsl));
      }
    }
    ++campaigns;
  } while (!slice.done());
  const double n = static_cast<double>(campaigns);
  report.add("geneva.ga.fitness_s", fitness_s / n, "s");
  report.add("geneva.ga.breed_s", breed_s / n, "s");
  report.add("geneva.ga.cache_hit_ratio",
             ratio(static_cast<double>(hits),
                   static_cast<double>(hits + evaluations)),
             "ratio");
  report.add("geneva.ga.evaluations", static_cast<double>(evaluations) / n,
             "count");
  return phase;
}

struct TrialPhase {
  std::map<Country, std::vector<Sequence>> censor_seen;
  /// Server packets of no-evasion trials, before any engine, keyed by
  /// (country, protocol): the inputs Engine::process_outbound would get.
  std::map<std::pair<Country, AppProtocol>, std::vector<Sequence>> server_out;
  double trial_ns_mean = 0.0;
  /// Per recorded trial: packets reaching each country's censor hop, and
  /// packets entering the server's engine.
  std::map<Country, double> censor_saw_per_trial;
  double engine_in_per_trial = 0.0;
};

constexpr std::size_t kMaxSequences = 64;

/// Runs one recorded trial on a fresh Environment and files what it saw.
TrialResult traced_trial(const Cell& cell, std::uint64_t seed,
                         TrialPhase& phase, double* ctor_ns) {
  const auto t0 = Clock::now();
  auto env = std::make_unique<Environment>(cell.config(seed));
  if (ctor_ns != nullptr) *ctor_ns = ns_between(t0, Clock::now());
  ConnectionOptions conn = cell.connection();
  conn.record_trace = true;
  TrialResult result = env->run_connection(conn);
  Sequence saw;
  Sequence server;
  for (const TraceEvent& ev : result.trace.events()) {
    if (ev.point == TracePoint::kCensorSaw) {
      saw.push_back({ev.at, ev.direction, ev.packet});
    } else if (ev.point == TracePoint::kServerSent && !cell.strategy) {
      server.push_back({ev.at, ev.direction, ev.packet});
    }
  }
  auto& saw_list = phase.censor_seen[cell.country];
  if (saw_list.size() < kMaxSequences) saw_list.push_back(std::move(saw));
  if (!cell.strategy) {
    auto& out = phase.server_out[{cell.country, cell.protocol}];
    if (out.size() < kMaxSequences) out.push_back(std::move(server));
  }
  return result;
}

bool same_outcome(const TrialResult& a, const TrialResult& b) {
  return a.success == b.success && a.client_reset == b.client_reset &&
         a.timed_out == b.timed_out && a.censor_events == b.censor_events &&
         a.server_amplification == b.server_amplification;
}

TrialPhase run_trial_phase(const Options& opt, const std::vector<Cell>& cells,
                           double seconds, Report& report) {
  TrialPhase phase;
  std::vector<ConnectionOptions> conns;
  std::map<std::uint64_t, std::unique_ptr<Environment>> pooled;
  std::vector<Environment*> env_of;
  std::vector<double> ctor_ns;
  for (const Cell& cell : cells) {
    conns.push_back(cell.connection());
    const Environment::Config config = cell.config(1);
    const std::uint64_t key = env_config_digest(config);
    auto it = pooled.find(key);
    if (it == pooled.end()) {
      const auto t0 = Clock::now();
      auto env = std::make_unique<Environment>(config);
      ctor_ns.push_back(ns_between(t0, Clock::now()));
      it = pooled.emplace(key, std::move(env)).first;
    }
    env_of.push_back(it->second.get());
  }

  std::vector<double> reset_ns;
  std::vector<double> trial_ns;
  double created = 0.0;
  double delivered = 0.0;
  double dropped = 0.0;
  double lost = 0.0;
  double reordered = 0.0;
  std::map<Country, double> saw;
  double engine_in = 0.0;
  std::size_t traced = 0;
  const std::uint64_t base = phase_seed(opt, Phase::kTrials);
  const Slice slice(seconds);
  std::size_t i = 0;
  do {
    const std::size_t c = i % cells.size();
    const std::uint64_t seed = base + i;
    Environment& env = *env_of[c];
    const auto t0 = Clock::now();
    env.reset(seed);
    const auto t1 = Clock::now();
    const TrialResult result = env.run_connection(conns[c]);
    const auto t2 = Clock::now();
    reset_ns.push_back(ns_between(t0, t1));
    trial_ns.push_back(ns_between(t1, t2));
    const auto& acct = env.network().packet_accounting();
    created += static_cast<double>(acct.created);
    delivered += static_cast<double>(acct.delivered);
    dropped += static_cast<double>(acct.dropped);
    report.attempt();
    if (result.timed_out) report.fail("trial timed out (seed " + std::to_string(seed) + ")");

    // One lap in eight of each cell, staggered across cells, plus every
    // cell's first trial, is re-run on a freshly built Environment with the
    // trace on: the recycled substrate must reproduce it exactly, and the
    // trace feeds the censor and engine phases.
    const std::size_t lap = i / cells.size();
    if ((lap + c) % 8 == 0 || lap == 0) {
      double ns = 0.0;
      const TrialResult fresh = traced_trial(cells[c], seed, phase, &ns);
      ctor_ns.push_back(ns);
      report.attempt();
      if (!same_outcome(result, fresh)) {
        report.fail("pooled and fresh trials differ (seed " +
                    std::to_string(seed) + ")");
      }
      std::size_t server_sent = 0;
      for (const TraceEvent& ev : fresh.trace.events()) {
        if (ev.point == TracePoint::kLost) lost += 1.0;
        if (ev.point == TracePoint::kReordered) reordered += 1.0;
        if (ev.point == TracePoint::kCensorSaw) saw[cells[c].country] += 1.0;
        if (ev.point == TracePoint::kServerSent) ++server_sent;
      }
      if (cells[c].strategy) {
        engine_in += static_cast<double>(server_sent) /
                     fresh.server_amplification;
      }
      ++traced;
    }
    ++i;
  } while (!slice.done() || i < cells.size());

  const double n = static_cast<double>(trial_ns.size());
  const double t = static_cast<double>(traced);
  double sum = 0.0;
  for (const double v : trial_ns) sum += v;
  phase.trial_ns_mean = sum / n;
  for (const auto& [country, count] : saw) {
    phase.censor_saw_per_trial[country] = count / t;
  }
  phase.engine_in_per_trial = engine_in / t;
  report.add("eval.trial_ns.p50", median_of(trial_ns), "ns");
  report.add("eval.trial_ns.p99", percentile_of(trial_ns, 0.99), "ns");
  report.add("eval.env_reset_ns", median_of(reset_ns), "ns");
  report.add("eval.env_ctor_ns", median_of(ctor_ns), "ns");
  report.add("netsim.packets_per_trial", created / n, "count");
  report.add("netsim.delivered_per_trial", delivered / n, "count");
  report.add("netsim.dropped_per_trial", dropped / n, "count");
  report.add("netsim.lost_per_trial", lost / t, "count");
  report.add("netsim.reordered_per_trial", reordered / t, "count");
  return phase;
}

/// Censor packets for countries the workload's own cells never visit come
/// from that country's Table 2 rows.
void fill_missing_countries(const Options& opt, TrialPhase& phase,
                            Report& report) {
  const std::vector<Cell> grid = table2_cells();
  for (const Country country : all_countries()) {
    if (!phase.censor_seen[country].empty()) continue;
    std::uint64_t seed = phase_seed(opt, Phase::kFill);
    for (const Cell& cell : grid) {
      if (cell.country != country) continue;
      for (int k = 0; k < 2; ++k) {
        (void)traced_trial(cell, seed++, phase, nullptr);
        report.attempt();
      }
    }
  }
}

/// Engine inputs for every (country, protocol) a strategy cell needs.
void fill_missing_server_packets(const Options& opt,
                                 const std::vector<Cell>& cells,
                                 TrialPhase& phase, Report& report) {
  std::uint64_t seed = phase_seed(opt, Phase::kFill) + 50'000'000;
  for (const Cell& cell : cells) {
    if (!cell.strategy) continue;
    if (!phase.server_out[{cell.country, cell.protocol}].empty()) continue;
    Cell baseline = cell;
    baseline.strategy.reset();
    for (int k = 0; k < 4; ++k) {
      (void)traced_trial(baseline, seed++, phase, nullptr);
      report.attempt();
    }
  }
}

void run_rng_phase(const Options& opt, double seconds, Report& report) {
  constexpr std::size_t kBatch = 256;
  std::vector<double> per_fork;
  std::uint64_t sink = 0;
  Rng parent(phase_seed(opt, Phase::kRng));
  const Slice slice(seconds);
  do {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kBatch; ++k) {
      Rng child = parent.fork();
      sink ^= child.engine()();
    }
    per_fork.push_back(ns_between(t0, Clock::now()) / kBatch);
  } while (!slice.done());
  g_sink = sink;
  report.add("util.rng_fork_ns", median_of(per_fork), "ns");
}

/// Returns ns per packet through the country's whole box set.
std::map<Country, double> run_censor_phase(const Options& opt,
                                           const TrialPhase& phase,
                                           double seconds, Report& report) {
  std::map<Country, double> per_packet;
  double tcb_sum = 0.0;
  std::size_t tcb_reads = 0;
  const double share = seconds / static_cast<double>(all_countries().size());
  for (const Country country : all_countries()) {
    const std::vector<Sequence>& seqs = phase.censor_seen.at(country);
    CensorSet set(country, phase_seed(opt, Phase::kCensor));
    ReplayInjector injector;
    std::vector<double> reset_ns;
    double feed_ns = 0.0;
    double packets = 0.0;
    std::size_t k = 0;
    const Slice slice(share);
    do {
      const Sequence& seq = seqs[k % seqs.size()];
      const auto t0 = Clock::now();
      set.reset(phase_seed(opt, Phase::kCensor) + k);
      const auto t1 = Clock::now();
      for (const Seen& seen : seq) {
        injector.at = seen.at;
        for (Middlebox* box : set.boxes()) {
          (void)box->on_packet(seen.packet, seen.dir, injector);
        }
      }
      const auto t2 = Clock::now();
      reset_ns.push_back(ns_between(t0, t1));
      feed_ns += ns_between(t1, t2);
      packets += static_cast<double>(seq.size());
      tcb_sum += static_cast<double>(set.tcb_total());
      ++tcb_reads;
      ++k;
    } while (!slice.done() || k < seqs.size());
    per_packet[country] = ratio(feed_ns, packets);
    const std::string key = country_key(country);
    report.add("censor.on_packet_ns." + key, per_packet[country], "ns");
    report.add("censor.reset_ns." + key, median_of(reset_ns), "ns");
  }
  report.add("censor.tcb_total", tcb_sum / static_cast<double>(tcb_reads),
             "count");
  return per_packet;
}

/// Returns ns per packet entering Engine::process_outbound.
double run_engine_phase(const Options& opt, const std::vector<Cell>& cells,
                        const TrialPhase& phase, double seconds,
                        Report& report) {
  std::vector<const Cell*> with_strategy;
  for (const Cell& cell : cells) {
    if (cell.strategy) with_strategy.push_back(&cell);
  }
  if (with_strategy.empty()) {
    report.add("geneva.engine_ns_per_packet", 0.0, "ns");
    report.add("geneva.amplification", 1.0, "ratio");
    return 0.0;
  }
  double ns = 0.0;
  double in = 0.0;
  double out = 0.0;
  std::size_t k = 0;
  const Slice slice(seconds);
  do {
    const Cell& cell = *with_strategy[k % with_strategy.size()];
    const std::vector<Sequence>& seqs =
        phase.server_out.at({cell.country, cell.protocol});
    const Sequence& seq = seqs[(k / with_strategy.size()) % seqs.size()];
    std::vector<Packet> batch;
    batch.reserve(seq.size());
    for (const Seen& seen : seq) batch.push_back(seen.packet);
    Engine engine(&*cell.strategy, Rng(phase_seed(opt, Phase::kEngine) + k));
    std::size_t produced = 0;
    const auto t0 = Clock::now();
    for (Packet& pkt : batch) {
      produced += engine.process_outbound(std::move(pkt)).size();
    }
    ns += ns_between(t0, Clock::now());
    in += static_cast<double>(batch.size());
    out += static_cast<double>(produced);
    ++k;
  } while (!slice.done() || k < with_strategy.size());
  const double per_packet = ratio(ns, in);
  report.add("geneva.engine_ns_per_packet", per_packet, "ns");
  report.add("geneva.amplification", ratio(out, in), "ratio");
  return per_packet;
}

void run_parse_phase(const std::vector<Cell>& cells, double seconds,
                     Report& report) {
  std::vector<std::string> dsls;
  std::set<std::string> distinct;
  for (const Cell& cell : cells) {
    if (cell.strategy && distinct.insert(cell.strategy->to_string()).second) {
      dsls.push_back(cell.strategy->to_string());
    }
  }
  if (dsls.empty()) {
    for (const PublishedStrategy& s : published_strategies()) {
      dsls.push_back(parsed_strategy(s.id).to_string());
    }
  }
  std::vector<double> parse_ns;
  std::vector<double> key_ns;
  std::size_t k = 0;
  const Slice slice(seconds);
  do {
    const std::string& dsl = dsls[k % dsls.size()];
    const auto t0 = Clock::now();
    const Strategy parsed = parse_strategy(dsl);
    const auto t1 = Clock::now();
    const std::string key = parsed.to_string();
    const auto t2 = Clock::now();
    parse_ns.push_back(ns_between(t0, t1));
    key_ns.push_back(ns_between(t1, t2));
    report.attempt();
    if (key != dsl) report.fail("parse/to_string is not a fixed point: " + dsl);
    ++k;
  } while (!slice.done() || k < dsls.size());
  report.add("geneva.parse_ns", median_of(parse_ns), "ns");
  report.add("geneva.key_ns", median_of(key_ns), "ns");
}

void run_serve_phase(const Options& opt, double seconds, Report& report) {
  double flows = 0.0;
  double waste = 0.0;
  double mispredictions = 0.0;
  double constructions = 0.0;
  std::size_t runs = 0;
  const Slice slice(seconds);
  do {
    ServeConfig config;
    config.country = Country::kChina;
    config.protocol = AppProtocol::kHttp;
    config.flows = opt.serve_flows;
    config.regime_flip_at = opt.serve_flip;
    config.base_seed = phase_seed(opt, Phase::kServe) + runs * opt.serve_flows;
    config.breaker_seed = config.base_seed;
    config.jobs = opt.jobs;
    std::vector<ServeTier> tiers;
    for (const int id : {7, 6, 2}) {
      tiers.push_back({"published " + std::to_string(id), published(id)});
    }
    Orchestrator orch(config, std::move(tiers));
    const std::uint64_t before = EnvironmentPool::constructed();
    const ServeReport& served = orch.run();
    constructions +=
        static_cast<double>(EnvironmentPool::constructed() - before);
    flows += static_cast<double>(served.flows);
    waste += static_cast<double>(served.speculated_waste);
    mispredictions += static_cast<double>(served.mispredictions);
    std::size_t total = 0;
    for (const TierStats& tier : served.tiers) {
      total += tier.served;
      if (tier.errors > 0) report.fail("serve tier errors", tier.errors);
    }
    report.attempt(served.flows);
    if (total != config.flows || served.flows != config.flows) {
      report.fail("serve tier ledger does not sum to --flows");
    }
    ++runs;
  } while (!slice.done());
  report.add("serve.trials_per_flow", ratio(flows + waste, flows), "ratio");
  report.add("serve.mispredictions",
             mispredictions / static_cast<double>(runs), "count");
  report.add("eval.constructions_per_flow", ratio(constructions, flows + waste),
             "count");
}

void run_fuzz_phase(const Options& opt, double seconds, Report& report) {
  // Campaigns through run_fuzz, as `caya fuzz --censor all` runs them.
  double iters = 0.0;
  double records = 0.0;
  double decode_fail = 0.0;
  double constructions = 0.0;
  const Slice campaigns(seconds / 2);
  std::size_t round = 0;
  do {
    for (const Country country : all_countries()) {
      FuzzConfig config;
      config.country = country;
      config.iters = opt.fuzz_iters;
      config.seed = phase_seed(opt, Phase::kFuzz) + round;
      config.jobs = opt.jobs;
      const std::uint64_t before = EnvironmentPool::constructed();
      const FuzzReport fuzz = run_fuzz(config);
      constructions +=
          static_cast<double>(EnvironmentPool::constructed() - before);
      iters += static_cast<double>(fuzz.iters);
      records += static_cast<double>(fuzz.records);
      decode_fail += static_cast<double>(fuzz.decode.failures());
      report.attempt(fuzz.iters);
      if (!fuzz.clean()) {
        report.fail(std::string("fuzz findings against ") +
                        country_key(country),
                    fuzz.crashes + fuzz.fail_closed);
      }
      if (fuzz.decode.successes() + fuzz.decode.failures() != fuzz.records) {
        report.fail("fuzz decode ledger does not sum to records fed");
      }
    }
    ++round;
  } while (!campaigns.done());
  report.add("fuzz.records_per_iter", records / iters, "count");
  report.add("fuzz.decode_fail_per_iter", decode_fail / iters, "count");
  report.add("eval.constructions_per_fuzz_iter", constructions / iters,
             "count");

  // Single oracle runs and the decoder, timed one stream at a time.
  std::vector<double> oracle_ns;
  double parse_ns = 0.0;
  double parsed = 0.0;
  std::size_t ok = 0;
  std::size_t i = 0;
  const Slice singles(seconds / 2);
  do {
    const Country country = all_countries()[i % all_countries().size()];
    const std::uint64_t iter_seed =
        fuzz_iteration_seed(phase_seed(opt, Phase::kFuzz) + 1'000'000, i);
    Rng rng(iter_seed);
    const HostileStream stream = generate_hostile_stream(country, rng);
    const auto t0 = Clock::now();
    const OracleOutcome outcome = run_oracle(country, iter_seed, stream.records);
    oracle_ns.push_back(ns_between(t0, Clock::now()));
    report.attempt();
    if (!outcome.clean()) report.fail("oracle finding");
    const auto t1 = Clock::now();
    for (const PcapRecord& record : stream.records) {
      ok += Packet::try_parse(record.data).ok() ? 1 : 0;
    }
    parse_ns += ns_between(t1, Clock::now());
    parsed += static_cast<double>(stream.records.size());
    ++i;
  } while (!singles.done());
  report.add("fuzz.oracle_ns", median_of(oracle_ns), "ns");
  report.add("packet.try_parse_ns", ratio(parse_ns, parsed), "ns");
  g_sink = ok;
}

void run_efficiency_phase(const Options& opt, const std::vector<Cell>& cells,
                          double seconds, Report& report) {
  // measure_rate has no regime knob: cells of other eras are skipped.
  std::vector<const Cell*> rate_cells;
  for (const Cell& cell : cells) {
    if (cell.regime == GfwRegime::kEra2019) rate_cells.push_back(&cell);
  }
  // At least 4000 trials a round, so the fan-out is not all overhead.
  const std::size_t per_cell = std::max<std::size_t>(
      opt.trials_per_cell, (4000 + rate_cells.size() - 1) / rate_cells.size());
  std::vector<double> efficiency;
  double trials = 0.0;
  double constructions = 0.0;
  std::size_t round = 0;
  const Slice slice(seconds);
  do {
    double wall[2] = {0.0, 0.0};
    std::vector<RateCounter> rates[2];
    const std::size_t jobs[2] = {opt.jobs, 1};
    for (int side = 0; side < 2; ++side) {
      const std::uint64_t before = EnvironmentPool::constructed();
      const auto t0 = Clock::now();
      for (const Cell* cell : rate_cells) {
        RateOptions options;
        options.trials = per_cell;
        options.base_seed = phase_seed(opt, Phase::kEfficiency) + round * per_cell;
        options.profile = cell->profile;
        options.jobs = jobs[side];
        rates[side].push_back(measure_rate(cell->country, cell->protocol,
                                           cell->strategy, options));
      }
      wall[side] = ns_between(t0, Clock::now());
      if (side == 0) {
        constructions +=
            static_cast<double>(EnvironmentPool::constructed() - before);
        trials += static_cast<double>(rate_cells.size() * per_cell);
      }
      report.attempt(rate_cells.size() * per_cell);
    }
    for (std::size_t k = 0; k < rate_cells.size(); ++k) {
      if (rates[0][k].successes() != rates[1][k].successes()) {
        report.fail("measure_rate differs between --jobs values");
      }
    }
    efficiency.push_back(wall[1] /
                         (static_cast<double>(opt.jobs) * wall[0]));
    ++round;
  } while (!slice.done());
  report.add("eval.parallel_efficiency", median_of(efficiency), "ratio");
  report.add("eval.constructions_per_trial", ratio(constructions, trials),
             "count");
}

/// The span cost itself: the same pooled trials, timed as one batch, with
/// and without the trial phase's per-call clock reads and sample stores.
void run_overhead_phase(const Options& opt, const std::vector<Cell>& cells,
                        double seconds, Report& report) {
  std::vector<ConnectionOptions> conns;
  std::vector<std::unique_ptr<Environment>> envs;
  for (const Cell& cell : cells) {
    conns.push_back(cell.connection());
    envs.push_back(std::make_unique<Environment>(cell.config(1)));
  }
  const std::size_t batch = std::max<std::size_t>(cells.size(), 64);
  std::vector<double> samples;
  samples.reserve(2 * batch);
  std::vector<double> overhead;
  std::size_t wins = 0;
  std::size_t round = 0;
  const Slice slice(seconds);
  do {
    const std::uint64_t base = phase_seed(opt, Phase::kOverhead) + round * batch;
    double wall[2] = {0.0, 0.0};  // [plain, with spans]
    // Alternate which pass runs first so warm-up favours neither.
    for (int pass = 0; pass < 2; ++pass) {
      const int spans = (pass + static_cast<int>(round)) % 2;
      samples.clear();
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < batch; ++i) {
        const std::size_t c = i % cells.size();
        if (spans == 1) {
          const auto a = Clock::now();
          envs[c]->reset(base + i);
          const auto b = Clock::now();
          wins += envs[c]->run_connection(conns[c]).success ? 1 : 0;
          samples.push_back(ns_between(a, b));
          samples.push_back(ns_between(b, Clock::now()));
        } else {
          envs[c]->reset(base + i);
          wins += envs[c]->run_connection(conns[c]).success ? 1 : 0;
        }
      }
      wall[spans] = ns_between(t0, Clock::now());
    }
    overhead.push_back((wall[1] / wall[0] - 1.0) * 100.0);
    report.attempt(2 * batch);
    ++round;
  } while (!slice.done());
  g_sink = wins;
  report.add("trace.overhead_pct", median_of(overhead), "%");
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    const auto count = [&] {
      return static_cast<std::size_t>(std::stoull(value));
    };
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--jobs") {
      opt.jobs = std::max<std::size_t>(1, count());
    } else if (arg == "--trials-per-cell") {
      opt.trials_per_cell = count();
    } else if (arg == "--ga-population") {
      opt.ga_population = count();
    } else if (arg == "--ga-gens") {
      opt.ga_gens = count();
    } else if (arg == "--serve-flows") {
      opt.serve_flows = count();
    } else if (arg == "--serve-flip") {
      opt.serve_flip = count();
    } else if (arg == "--fuzz-iters") {
      opt.fuzz_iters = count();
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
  return opt;
}

int run(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  Report report;
  const double s = opt.seconds;

  const GaPhase ga = run_ga_phase(opt, 0.12 * s, report);
  const std::vector<Cell> cells = workload_cells(opt.workload, ga.seen);
  TrialPhase trials = run_trial_phase(opt, cells, 0.28 * s, report);
  fill_missing_countries(opt, trials, report);
  fill_missing_server_packets(opt, cells, trials, report);
  run_rng_phase(opt, 0.03 * s, report);
  const std::map<Country, double> censor_ns =
      run_censor_phase(opt, trials, 0.12 * s, report);
  const double engine_ns = run_engine_phase(opt, cells, trials, 0.05 * s, report);
  run_parse_phase(cells, 0.03 * s, report);
  run_serve_phase(opt, 0.08 * s, report);
  run_fuzz_phase(opt, 0.12 * s, report);
  run_efficiency_phase(opt, cells, 0.12 * s, report);
  run_overhead_phase(opt, cells, 0.05 * s, report);

  // What the event loop, TCP endpoints and apps cost, by subtraction: an
  // estimate until the library carries spans of its own.
  double censor_per_trial = 0.0;
  for (const auto& [country, packets] : trials.censor_saw_per_trial) {
    censor_per_trial += packets * censor_ns.at(country);
  }
  const double engine_per_trial = engine_ns * trials.engine_in_per_trial;
  report.add("eval.trial_residual_ns",
             trials.trial_ns_mean - censor_per_trial - engine_per_trial, "ns");
  report.print();
  return 0;
}

}  // namespace
}  // namespace caya

int main(int argc, char** argv) {
  try {
    return caya::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "caya_layers: error: %s\n", e.what());
    return 2;
  }
}
