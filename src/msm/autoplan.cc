#include "src/msm/autoplan.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sched/schedule_search.h"
#include "src/support/trace.h"

namespace distmsm::msm {
namespace {

using gpusim::CollectiveAlgo;
using gpusim::CollectivePolicy;
using gpusim::CurveProfile;
using gpusim::FieldBackend;

/** One point of the search space: the searchable MsmOptions knobs.
 *  windowBits 0 defers to the workload model, exactly like
 *  MsmOptions::windowBitsOverride. */
struct Candidate
{
    unsigned windowBits = 0;
    bool signedDigits = false;
    bool glv = false;
    bool batchAffine = false;
    bool precompute = false;
    bool cpuBucketReduce = true;
    FieldBackend fieldBackend = FieldBackend::Auto;
    CollectivePolicy collective = CollectivePolicy::Gather;
    int threadsPerBucket = 1;
};

/** The caller's own knobs as a candidate — the search's seed. */
Candidate
seedCandidate(const MsmOptions &base)
{
    Candidate c;
    c.windowBits = base.windowBitsOverride;
    c.signedDigits = base.signedDigits;
    c.glv = base.glv;
    c.batchAffine = base.batchAffine;
    c.precompute = base.precompute;
    c.cpuBucketReduce = base.cpuBucketReduce;
    c.fieldBackend = base.fieldBackend;
    c.collective = base.collective;
    c.threadsPerBucket = base.threadsPerBucket;
    return c;
}

/**
 * Scoring probe: the caller's options with the candidate's knobs
 * applied. Planner pinned to Heuristic (the probe flows through
 * planMsmHeuristic / estimateDistMsmWithPlan, never back into the
 * search) and the trace detached (thousands of probes must not spam
 * the caller's timeline).
 */
MsmOptions
realize(const MsmOptions &base, const Candidate &c)
{
    MsmOptions o = base;
    o.planner = PlannerMode::Heuristic;
    o.trace = nullptr;
    o.windowBitsOverride = c.windowBits;
    o.signedDigits = c.signedDigits;
    o.glv = c.glv;
    o.batchAffine = c.batchAffine;
    o.precompute = c.precompute;
    o.cpuBucketReduce = c.cpuBucketReduce;
    o.fieldBackend = c.fieldBackend;
    o.collective = c.collective;
    o.threadsPerBucket = c.threadsPerBucket;
    return o;
}

/**
 * DISTMSM_AUTOPLAN_BEAM: a positive width turns the exhaustive
 * enumeration into a staged beam search (see searchPlans); unset,
 * empty, or <= 0 keeps the exhaustive default.
 */
int
beamWidthFromEnv()
{
    const char *v = std::getenv("DISTMSM_AUTOPLAN_BEAM");
    if (v == nullptr || *v == '\0')
        return 0;
    return std::atoi(v);
}

/** Deterministic 64-bit FNV-1a over the fingerprint string. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Cache key: everything the search's answer depends on — curve, N,
 * topology fingerprint, device spec, host spec, cost params, and the
 * full option mask (each searchable knob's *starting* value pins or
 * seeds a dimension, and the fixed knobs shape every score).
 */
std::uint64_t
cacheKey(const CurveProfile &curve, std::uint64_t n,
         const gpusim::Cluster &cluster, const MsmOptions &o)
{
    std::ostringstream s;
    s.precision(17);
    s << "v3|" << curve.name << '|' << curve.fieldBits << '|'
      << curve.scalarBits << '|' << curve.aIsZero << '|'
      << curve.glvScalarBits << '|' << n << '|'
      << cluster.topology().describe() << '|';
    const auto &d = cluster.device();
    s << d.name << '|' << d.smCount << '|' << d.maxThreadsPerSm << '|'
      << d.registersPerSm << '|' << d.maxRegistersPerThread << '|'
      << d.sharedMemPerSm << '|' << d.globalMemBytes << '|'
      << d.clockGhz << '|' << d.int32Tops << '|' << d.tensorInt8Tops
      << '|' << d.fp32Tflops << '|' << d.memBandwidthGBs << '|'
      << d.sharedBandwidthRatio << '|' << d.globalAtomicNs << '|'
      << d.globalAtomicConflictNs << '|' << d.sharedAtomicNs << '|'
      << d.sharedAtomicConflictNs << '|' << d.transferBandwidthGBs
      << '|' << d.transferLatencyUs << '|';
    const auto &h = cluster.host();
    s << h.name << '|' << h.cores << '|' << h.gpuToCpuEcRatio << '|';
    const auto &p = cluster.model().params();
    s << p.opsPerMac << '|' << p.opsPerAdd << '|' << p.auxRegisters
      << '|' << p.saturationThreadsPerSm << '|' << p.tcOpsPerByteMac
      << '|' << p.tcMarshalOpsPerOffloadedMac << '|'
      << p.compactWideMarshalFactor << '|' << p.scatterOpsPerElement
      << '|' << p.kernelLaunchUs << '|' << p.tcRawStoreOpsPerLimb
      << '|';
    s << o.windowBitsOverride << '|' << o.hierarchicalScatter << '|'
      << o.cpuBucketReduce << '|' << o.overlapReduce << '|'
      << o.threadsPerBucket << '|' << o.signedDigits << '|'
      << o.precompute << '|' << o.glv << '|' << o.batchAffine << '|'
      << static_cast<int>(o.collective) << '|'
      << o.kernel.dedicatedPacc << o.kernel.optimalOrder
      << o.kernel.explicitSpill << o.kernel.tensorCoreMont
      << o.kernel.onTheFlyCompact << '|'
      << static_cast<int>(o.fieldBackend) << '|'
      << o.scatter.blockDim << '|' << o.scatter.gridDim << '|'
      << o.scatter.sharedBytesPerBlock << '|'
      << o.scatter.localIdBytes << '|' << o.scatter.globalIdBytes
      << '|' << o.scatter.uncoalescedWriteFactor << '|'
      << o.verifyChecksums << '|' << beamWidthFromEnv();
    return fnv1a(s.str());
}

/** Everything a cache hit must reproduce without re-searching. */
struct CacheEntry
{
    MsmPlan plan;
    Candidate winner;
    double searchedNs = 0.0;
    double heuristicNs = 0.0;
};

/** Columns of a v3 cache row: the key, 16 plan fields, 9 winner
 *  fields and the two timings. */
constexpr std::size_t kPlanFields = 16;
constexpr std::size_t kWinnerFields = 9;
constexpr std::size_t kRowFields = 1 + kPlanFields + kWinnerFields + 2;
/** Widest window a row may name (32-bit bucket ids). */
constexpr long long kMaxWindowBits = 31;

/** One TSV record, every field an exact integer except the two
 *  timings (%.17g round-trips doubles). */
std::string
formatEntry(std::uint64_t key, const CacheEntry &e)
{
    char ns[64];
    std::snprintf(ns, sizeof ns, "%.17g\t%.17g", e.searchedNs,
                  e.heuristicNs);
    std::ostringstream s;
    const MsmPlan &p = e.plan;
    const Candidate &c = e.winner;
    s << key << '\t' << p.windowBits << '\t' << p.numWindows << '\t'
      << p.scalarBits << '\t' << p.glv << '\t' << p.numBuckets << '\t'
      << p.signedDigits << '\t' << p.gpusPerWindow << '\t'
      << p.windowsPerGpu << '\t' << p.threadsPerBucket << '\t'
      << p.bucketsSplitAcrossGpus << '\t' << p.precompute << '\t'
      << p.tableBytes << '\t' << static_cast<int>(p.collective)
      << '\t' << p.mergeBytesPerGpu << '\t'
      << static_cast<int>(p.fieldBackend) << '\t'
      << p.fieldBackendAuto << '\t' << c.windowBits << '\t'
      << c.signedDigits << '\t' << c.glv << '\t' << c.batchAffine
      << '\t' << c.precompute << '\t' << c.cpuBucketReduce << '\t'
      << static_cast<int>(c.fieldBackend) << '\t'
      << static_cast<int>(c.collective) << '\t'
      << c.threadsPerBucket << '\t' << ns;
    return s.str();
}

/** Parse the whole of @p field as a number. */
template <typename T>
bool
parseField(const std::string &field, T &out)
{
    const char *end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, out);
    return ec == std::errc() && ptr == end;
}

/**
 * Parse one cache row, rejecting (a cache miss) anything a v3 writer
 * could not have produced: a wrong column count, a non-numeric
 * field, an out-of-range CollectiveAlgo / FieldBackend /
 * CollectivePolicy, or a window geometry (numWindows, numBuckets)
 * that disagrees with the row's own windowBits, scalarBits and
 * signedDigits.
 */
bool
parseEntry(const std::string &line, std::uint64_t &key, CacheEntry &e)
{
    std::vector<std::string> fields;
    std::istringstream row(line);
    for (std::string f; std::getline(row, f, '\t');)
        fields.push_back(f);
    if (fields.size() != kRowFields || !parseField(fields[0], key))
        return false;
    long long v[kPlanFields + kWinnerFields];
    for (std::size_t i = 0; i < kPlanFields + kWinnerFields; ++i)
        if (!parseField(fields[1 + i], v[i]))
            return false;
    if (!parseField(fields[kRowFields - 2], e.searchedNs) ||
        !parseField(fields[kRowFields - 1], e.heuristicNs))
        return false;
    const long long *pi = v;
    const long long *ci = v + kPlanFields;
    const auto in_range = [](long long x, auto last) {
        return x >= 0 && x <= static_cast<long long>(last);
    };
    if (!in_range(pi[12], CollectiveAlgo::ReduceScatter) ||
        !in_range(pi[14], FieldBackend::TensorCore) ||
        !in_range(ci[6], FieldBackend::TensorCore) ||
        !in_range(ci[7], CollectivePolicy::Auto) || pi[0] < 1 ||
        pi[0] > kMaxWindowBits)
        return false;
    MsmPlan &p = e.plan;
    p.windowBits = static_cast<unsigned>(pi[0]);
    p.numWindows = static_cast<unsigned>(pi[1]);
    p.scalarBits = static_cast<unsigned>(pi[2]);
    p.glv = pi[3] != 0;
    p.numBuckets = static_cast<std::uint64_t>(pi[4]);
    p.signedDigits = pi[5] != 0;
    p.gpusPerWindow = static_cast<int>(pi[6]);
    p.windowsPerGpu = static_cast<unsigned>(pi[7]);
    p.threadsPerBucket = static_cast<int>(pi[8]);
    p.bucketsSplitAcrossGpus = pi[9] != 0;
    p.precompute = pi[10] != 0;
    p.tableBytes = static_cast<std::uint64_t>(pi[11]);
    p.collective = static_cast<CollectiveAlgo>(pi[12]);
    p.mergeBytesPerGpu = static_cast<std::uint64_t>(pi[13]);
    p.fieldBackend = static_cast<FieldBackend>(pi[14]);
    p.fieldBackendAuto = pi[15] != 0;
    const auto [windows, buckets] =
        windowGeometry(p.scalarBits, p.windowBits, p.signedDigits);
    if (pi[1] != static_cast<long long>(windows) ||
        pi[4] != static_cast<long long>(buckets))
        return false;
    Candidate &c = e.winner;
    c.windowBits = static_cast<unsigned>(ci[0]);
    c.signedDigits = ci[1] != 0;
    c.glv = ci[2] != 0;
    c.batchAffine = ci[3] != 0;
    c.precompute = ci[4] != 0;
    c.cpuBucketReduce = ci[5] != 0;
    c.fieldBackend = static_cast<FieldBackend>(ci[6]);
    c.collective = static_cast<CollectivePolicy>(ci[7]);
    c.threadsPerBucket = static_cast<int>(ci[8]);
    return true;
}

/**
 * In-process view of the persisted plan cache: a map loaded lazily
 * from the cache file, with misses appended back. The file lives at
 * DISTMSM_PLAN_CACHE, else $XDG_CACHE_HOME/distmsm/plans.tsv, else
 * $HOME/.cache/distmsm/plans.tsv; with none of the three variables
 * set the cache degrades to in-memory only.
 */
class PlanCache
{
  public:
    static PlanCache &
    instance()
    {
        static PlanCache cache;
        return cache;
    }

    bool
    lookup(std::uint64_t key, CacheEntry &out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        loadLocked();
        auto it = entries_.find(key);
        if (it == entries_.end())
            return false;
        out = it->second;
        return true;
    }

    void
    store(std::uint64_t key, const CacheEntry &entry)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        loadLocked();
        if (!entries_.emplace(key, entry).second)
            return;
        if (path_.empty())
            return;
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(path_).parent_path(), ec);
        std::ofstream os(path_, std::ios::app);
        if (os)
            os << formatEntry(key, entry) << '\n';
    }

    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
        loaded_ = false;
    }

  private:
    PlanCache() = default;

    static std::string
    defaultPath()
    {
        if (const char *p = std::getenv("DISTMSM_PLAN_CACHE"))
            return p;
        if (const char *xdg = std::getenv("XDG_CACHE_HOME"))
            return std::string(xdg) + "/distmsm/plans.tsv";
        if (const char *home = std::getenv("HOME"))
            return std::string(home) + "/.cache/distmsm/plans.tsv";
        return {};
    }

    void
    loadLocked()
    {
        if (loaded_)
            return;
        loaded_ = true;
        path_ = defaultPath();
        if (path_.empty())
            return;
        std::ifstream is(path_);
        std::string line;
        while (std::getline(is, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::uint64_t key = 0;
            CacheEntry e;
            if (parseEntry(line, key, e))
                entries_.emplace(key, e);
        }
    }

    std::mutex mutex_;
    bool loaded_ = false;
    std::string path_;
    std::unordered_map<std::uint64_t, CacheEntry> entries_;
};

/** Window-bits dimension: the caller's pin, or the model's pick (0)
 *  bracketed two bits each way within the planner's [4, 24] range. */
std::vector<unsigned>
windowCandidates(const MsmOptions &base, unsigned heuristic_bits)
{
    if (base.windowBitsOverride != 0)
        return {base.windowBitsOverride};
    std::vector<unsigned> out{0};
    for (int d = -2; d <= 2; ++d) {
        const int s = static_cast<int>(heuristic_bits) + d;
        if (s >= 4 && s <= 24)
            out.push_back(static_cast<unsigned>(s));
    }
    return out;
}

/** Score one realized candidate: heuristic plan + analytic
 *  totalNs(). */
double
scoreCandidate(const CurveProfile &curve, std::uint64_t n,
               const gpusim::Cluster &cluster,
               const MsmOptions &probe, MsmPlan &plan_out)
{
    plan_out = planMsmHeuristic(curve, n, cluster, probe);
    return estimateDistMsmWithPlan(curve, n, cluster, probe, plan_out)
        .totalNs();
}

/** The knob value lists one search enumerates (fixed order; a
 *  pinned option collapses its dimension to a singleton). */
struct SearchDims
{
    std::vector<unsigned> windows;
    std::vector<bool> toggles{false, true};
    std::vector<bool> glvs;
    std::vector<bool> cpuReduce;
    std::vector<FieldBackend> backends;
    std::vector<CollectivePolicy> collectives;
    std::vector<int> tpbs;

    std::uint64_t
    space() const
    {
        return static_cast<std::uint64_t>(windows.size()) *
               toggles.size() * glvs.size() * toggles.size() *
               toggles.size() * cpuReduce.size() * backends.size() *
               collectives.size() * tpbs.size();
    }
};

SearchDims
buildDims(const CurveProfile &curve, const MsmOptions &base,
          const MsmPlan &seed_plan)
{
    SearchDims d;
    d.windows = windowCandidates(base, seed_plan.windowBits);
    d.glvs = curve.glvScalarBits == 0 ? std::vector<bool>{false}
                                      : std::vector<bool>{false, true};
    d.tpbs = {base.threadsPerBucket};
    if (2 * seed_plan.threadsPerBucket != base.threadsPerBucket)
        d.tpbs.push_back(2 * seed_plan.threadsPerBucket);
    if (base.fieldBackend != FieldBackend::Auto) {
        d.backends = {base.fieldBackend};
    } else if (!base.kernel.tensorCoreMont) {
        // Auto must not resurrect an explicitly stripped variant.
        d.backends = {FieldBackend::CudaCore};
    } else {
        d.backends = {FieldBackend::CudaCore,
                      FieldBackend::TensorCore};
    }
    if (base.collective == CollectivePolicy::Ring ||
        base.collective == CollectivePolicy::Tree ||
        base.collective == CollectivePolicy::ReduceScatter) {
        d.collectives = {base.collective};
    } else {
        // Gather (the legacy default) and Auto both mean "merge
        // strategy not pinned": search the four concrete
        // strategies against the full timeline, which sees overlap
        // effects the link tuner's local argmin cannot.
        d.collectives = {CollectivePolicy::Gather,
                         CollectivePolicy::Ring,
                         CollectivePolicy::Tree,
                         CollectivePolicy::ReduceScatter};
    }
    d.cpuReduce = base.cpuBucketReduce ? std::vector<bool>{false, true}
                                       : std::vector<bool>{false};
    return d;
}

/** The search proper (no cache involvement). */
AutoPlanResult
searchPlans(const CurveProfile &curve, std::uint64_t n,
            const gpusim::Cluster &cluster, const MsmOptions &base)
{
    // The driver tracks the winning *candidate*; plans are cheap to
    // re-derive, and keying on the candidate keeps the tie-break
    // story identical to the kernel scheduler's.
    sched::SearchDriver<Candidate, double> driver;

    const Candidate seed = seedCandidate(base);
    MsmPlan seed_plan;
    const double seed_ns =
        scoreCandidate(curve, n, cluster, realize(base, seed),
                       seed_plan);
    driver.seed(seed, seed_ns);

    const SearchDims dims = buildDims(curve, base, seed_plan);
    const auto score = [&](const Candidate &c) {
        MsmPlan plan;
        return scoreCandidate(curve, n, cluster, realize(base, c),
                              plan);
    };

    const int beam = beamWidthFromEnv();
    if (beam > 0) {
        // Staged beam: fix one knob per stage, keeping the `beam`
        // best partially-refined candidates (every unfixed knob holds
        // its stem's value, so each stem is always a complete,
        // scoreable candidate). Every scored candidate also feeds
        // the driver, and the driver was seeded first — so however
        // narrow the beam, the result never loses to the heuristic
        // seed. Stems carry their scores forward between stages
        // (offered to the next pool unscored); only genuinely new
        // knob values cost an evaluation.
        using Setter = std::function<std::vector<Candidate>(
            const Candidate &)>;
        // A stage: every value of one dimension other than the stem's.
        const auto stage = [](const auto &values, auto Candidate::*knob) {
            return Setter([&values, knob](const Candidate &stem) {
                std::vector<Candidate> out;
                for (const auto v : values)
                    if (v != stem.*knob) {
                        out.push_back(stem);
                        out.back().*knob = v;
                    }
                return out;
            });
        };
        const std::vector<Setter> stages{
            stage(dims.windows, &Candidate::windowBits),
            stage(dims.toggles, &Candidate::signedDigits),
            stage(dims.glvs, &Candidate::glv),
            stage(dims.toggles, &Candidate::batchAffine),
            stage(dims.toggles, &Candidate::precompute),
            stage(dims.cpuReduce, &Candidate::cpuBucketReduce),
            stage(dims.backends, &Candidate::fieldBackend),
            stage(dims.collectives, &Candidate::collective),
            stage(dims.tpbs, &Candidate::threadsPerBucket),
        };
        std::vector<sched::BeamPool<Candidate, double>::Entry> stems{
            {seed, seed_ns}};
        for (const Setter &stage : stages) {
            sched::BeamPool<Candidate, double> pool(beam);
            for (const auto &stem : stems) {
                pool.offer(stem.candidate, stem.score);
                for (const Candidate &c : stage(stem.candidate)) {
                    const double ns = score(c);
                    driver.consider(c, ns);
                    pool.offer(c, ns);
                }
            }
            stems = pool.entries();
        }
        // Everything the narrowed beam never reached counts as
        // pruned — the exhaustive space minus what was scored.
        const std::uint64_t space = dims.space();
        if (space > driver.stats().evaluated)
            driver.prune(space - driver.stats().evaluated);
    } else {
        for (const unsigned w : dims.windows)
            for (const bool sd : dims.toggles)
                for (const bool glv : dims.glvs)
                    for (const bool ba : dims.toggles)
                        for (const bool pre : dims.toggles)
                            for (const bool cpu : dims.cpuReduce)
                                for (const FieldBackend fb :
                                     dims.backends)
                                    for (const CollectivePolicy cp :
                                         dims.collectives)
                                        for (const int tpb :
                                             dims.tpbs) {
                                            Candidate c;
                                            c.windowBits = w;
                                            c.signedDigits = sd;
                                            c.glv = glv;
                                            c.batchAffine = ba;
                                            c.precompute = pre;
                                            c.cpuBucketReduce = cpu;
                                            c.fieldBackend = fb;
                                            c.collective = cp;
                                            c.threadsPerBucket = tpb;
                                            driver.consider(c,
                                                            score(c));
                                        }
    }

    AutoPlanResult r;
    r.options = realize(base, driver.best());
    r.plan = planMsmHeuristic(curve, n, cluster, r.options);
    // The caller asked Auto (or pinned a backend); whether *this*
    // search or the heuristic's local rule resolved it, the plan's
    // provenance bit reports the caller's contract.
    r.plan.fieldBackendAuto = base.fieldBackend == FieldBackend::Auto;
    r.searchedNs = driver.bestScore();
    r.heuristicNs = seed_ns;
    r.evaluated = driver.stats().evaluated;
    r.pruned = driver.stats().pruned;
    return r;
}

void
recordMetrics(const MsmOptions &base, const AutoPlanResult &r,
              bool cached_mode)
{
    if (base.trace == nullptr)
        return;
    auto &m = base.trace->metrics();
    if (cached_mode)
        m.add(r.cacheHit ? "plan_cache/hits" : "plan_cache/misses",
              1.0);
    m.set("autoplan/evaluated", static_cast<double>(r.evaluated));
    m.set("autoplan/pruned", static_cast<double>(r.pruned));
    m.set("autoplan/cost_model_evals",
          static_cast<double>(r.costModelEvals));
    m.set("autoplan/searched_ns", r.searchedNs);
    m.set("autoplan/heuristic_ns", r.heuristicNs);
    m.set("autoplan/cache_hit", r.cacheHit ? 1.0 : 0.0);
}

} // namespace

AutoPlanResult
autoplanMsm(const CurveProfile &curve, std::uint64_t n,
            const gpusim::Cluster &full_cluster, const MsmOptions &base)
{
    // Quarantined devices shrink the planning fleet before anything
    // is keyed or scored: the cache key covers the topology, so a
    // shrunken fleet gets its own entry (idempotent when planMsm
    // already shrank).
    const gpusim::Cluster cluster =
        planningCluster(full_cluster, base.health);
    const std::uint64_t evals_before =
        gpusim::CostModel::evaluations();
    const bool cached_mode = base.planner == PlannerMode::Cached;

    if (cached_mode) {
        const std::uint64_t key = cacheKey(curve, n, cluster, base);
        CacheEntry entry;
        if (PlanCache::instance().lookup(key, entry)) {
            AutoPlanResult r;
            r.plan = entry.plan;
            r.options = realize(base, entry.winner);
            r.options.trace = base.trace;
            r.searchedNs = entry.searchedNs;
            r.heuristicNs = entry.heuristicNs;
            r.cacheHit = true;
            r.costModelEvals =
                gpusim::CostModel::evaluations() - evals_before;
            recordMetrics(base, r, cached_mode);
            return r;
        }
        AutoPlanResult r = searchPlans(curve, n, cluster, base);
        CacheEntry fresh;
        fresh.plan = r.plan;
        fresh.winner = seedCandidate(r.options);
        fresh.searchedNs = r.searchedNs;
        fresh.heuristicNs = r.heuristicNs;
        PlanCache::instance().store(key, fresh);
        r.options.trace = base.trace;
        r.costModelEvals =
            gpusim::CostModel::evaluations() - evals_before;
        recordMetrics(base, r, cached_mode);
        return r;
    }

    AutoPlanResult r = searchPlans(curve, n, cluster, base);
    r.options.trace = base.trace;
    r.costModelEvals =
        gpusim::CostModel::evaluations() - evals_before;
    recordMetrics(base, r, cached_mode);
    return r;
}

void
resetPlanCacheForTesting()
{
    PlanCache::instance().reset();
}

} // namespace distmsm::msm
