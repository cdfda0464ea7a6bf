#include "src/msm/autoplan.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
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
    s << "v4|" << curve.name << '|' << curve.fieldBits << '|'
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
      << o.verifyChecksums;
    return fnv1a(s.str());
}

/** Everything a cache hit must reproduce without re-searching. */
struct CacheEntry
{
    MsmPlan plan;
    double searchedNs = 0.0;
    double heuristicNs = 0.0;
};

/** Columns of a v4 cache row: the key, 20 plan fields and the two
 *  timings. */
constexpr std::size_t kPlanFields = 20;
constexpr std::size_t kRowFields = 1 + kPlanFields + 2;
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
    s << key << '\t' << p.windowBits << '\t' << p.numWindows << '\t'
      << p.scalarBits << '\t' << p.glv << '\t' << p.numBuckets << '\t'
      << p.signedDigits << '\t' << p.gpusPerWindow << '\t'
      << p.windowsPerGpu << '\t' << p.threadsPerBucket << '\t'
      << p.bucketsSplitAcrossGpus << '\t' << p.precompute << '\t'
      << p.tableBytes << '\t' << static_cast<int>(p.collective)
      << '\t' << p.mergeBytesPerGpu << '\t'
      << static_cast<int>(p.fieldBackend) << '\t'
      << p.fieldBackendAuto << '\t' << p.batchAffine << '\t'
      << p.cpuBucketReduce << '\t' << p.collectiveAuto << '\t'
      << p.hierarchicalScatter << '\t' << ns;
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
 * Parse one cache row, rejecting (a cache miss) anything a v4 writer
 * could not have produced: a wrong column count, a non-numeric
 * field, an out-of-range CollectiveAlgo / FieldBackend, or a window
 * geometry (numWindows, numBuckets) that disagrees with the row's own
 * windowBits, scalarBits and signedDigits.
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
    long long v[kPlanFields];
    for (std::size_t i = 0; i < kPlanFields; ++i)
        if (!parseField(fields[1 + i], v[i]))
            return false;
    if (!parseField(fields[kRowFields - 2], e.searchedNs) ||
        !parseField(fields[kRowFields - 1], e.heuristicNs))
        return false;
    const auto in_range = [](long long x, auto last) {
        return x >= 0 && x <= static_cast<long long>(last);
    };
    if (!in_range(v[12], CollectiveAlgo::ReduceScatter) ||
        !in_range(v[14], FieldBackend::TensorCore) || v[0] < 1 ||
        v[0] > kMaxWindowBits)
        return false;
    MsmPlan &p = e.plan;
    p.windowBits = static_cast<unsigned>(v[0]);
    p.numWindows = static_cast<unsigned>(v[1]);
    p.scalarBits = static_cast<unsigned>(v[2]);
    p.glv = v[3] != 0;
    p.numBuckets = static_cast<std::uint64_t>(v[4]);
    p.signedDigits = v[5] != 0;
    p.gpusPerWindow = static_cast<int>(v[6]);
    p.windowsPerGpu = static_cast<unsigned>(v[7]);
    p.threadsPerBucket = static_cast<int>(v[8]);
    p.bucketsSplitAcrossGpus = v[9] != 0;
    p.precompute = v[10] != 0;
    p.tableBytes = static_cast<std::uint64_t>(v[11]);
    p.collective = static_cast<CollectiveAlgo>(v[12]);
    p.mergeBytesPerGpu = static_cast<std::uint64_t>(v[13]);
    p.fieldBackend = static_cast<FieldBackend>(v[14]);
    p.fieldBackendAuto = v[15] != 0;
    p.batchAffine = v[16] != 0;
    p.cpuBucketReduce = v[17] != 0;
    p.collectiveAuto = v[18] != 0;
    p.hierarchicalScatter = v[19] != 0;
    const auto [windows, buckets] =
        windowGeometry(p.scalarBits, p.windowBits, p.signedDigits);
    return v[1] == static_cast<long long>(windows) &&
           v[4] == static_cast<long long>(buckets);
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

    /** Look @p key up, loading the cache file on first use;
     *  @p rejected receives the rows that load turned away (0 when
     *  the file was already loaded). */
    bool
    lookup(std::uint64_t key, CacheEntry &out, std::uint64_t &rejected)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rejected = loadLocked();
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

    /** Load the cache file once; returns the rows parseEntry
     *  rejected. */
    std::uint64_t
    loadLocked()
    {
        if (loaded_)
            return 0;
        loaded_ = true;
        path_ = defaultPath();
        if (path_.empty())
            return 0;
        std::ifstream is(path_);
        std::uint64_t rejected = 0;
        for (std::string line; std::getline(is, line);) {
            if (line.empty() || line[0] == '#')
                continue;
            std::uint64_t key = 0;
            CacheEntry e;
            if (parseEntry(line, key, e))
                entries_.emplace(key, e);
            else
                ++rejected;
        }
        return rejected;
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
    // A candidate is the caller's options with the searched knobs
    // set. The probe is planned through the heuristic rules (never
    // back into the search) and priced silently: thousands of probes
    // must not spam the caller's timeline.
    MsmOptions probe = base;
    probe.planner = PlannerMode::Heuristic;
    probe.trace = nullptr;
    MsmPlan plan;
    const auto score = [&] {
        plan = planMsmHeuristic(curve, n, cluster, probe);
        return estimateDistMsmWithPlan(curve, n, cluster, probe, plan)
            .totalNs();
    };
    // The caller's own knobs are the seed: the heuristic plan.
    sched::SearchDriver<MsmPlan, double> driver;
    const double seed_ns = score();
    driver.seed(plan, seed_ns);

    const SearchDims dims = buildDims(curve, base, plan);
    for (const unsigned w : dims.windows)
        for (const bool sd : dims.toggles)
            for (const bool glv : dims.glvs)
                for (const bool ba : dims.toggles)
                    for (const bool pre : dims.toggles)
                        for (const bool cpu : dims.cpuReduce)
                            for (const FieldBackend fb : dims.backends)
                                for (const CollectivePolicy cp :
                                     dims.collectives)
                                    for (const int tpb : dims.tpbs) {
                                        probe.windowBitsOverride = w;
                                        probe.signedDigits = sd;
                                        probe.glv = glv;
                                        probe.batchAffine = ba;
                                        probe.precompute = pre;
                                        probe.cpuBucketReduce = cpu;
                                        probe.fieldBackend = fb;
                                        probe.collective = cp;
                                        probe.threadsPerBucket = tpb;
                                        const double ns = score();
                                        driver.consider(plan, ns);
                                    }

    AutoPlanResult r;
    r.plan = driver.best();
    // The caller asked Auto (or pinned a backend); whether *this*
    // search or the heuristic's local rule resolved it, the plan's
    // provenance bit reports the caller's contract.
    r.plan.fieldBackendAuto = base.fieldBackend == FieldBackend::Auto;
    r.searchedNs = driver.bestScore();
    r.heuristicNs = seed_ns;
    r.evaluated = driver.stats().evaluated;
    return r;
}

void
recordMetrics(const MsmOptions &base, const AutoPlanResult &r,
              bool cached_mode, std::uint64_t rejected_rows)
{
    if (base.trace == nullptr)
        return;
    auto &m = base.trace->metrics();
    if (cached_mode)
        m.add(r.cacheHit ? "plan_cache/hits" : "plan_cache/misses",
              1.0);
    if (rejected_rows > 0)
        m.add("plan_cache/rejected_rows",
              static_cast<double>(rejected_rows));
    m.set("autoplan/evaluated", static_cast<double>(r.evaluated));
    m.set("autoplan/cost_model_evals",
          static_cast<double>(r.costModelEvals));
    m.set("autoplan/searched_ns", r.searchedNs);
    m.set("autoplan/heuristic_ns", r.heuristicNs);
    m.set("autoplan/cache_hit", r.cacheHit ? 1.0 : 0.0);
}

} // namespace

AutoPlanResult
autoplanMsm(const CurveProfile &curve, std::uint64_t n,
            const gpusim::Cluster &cluster, const MsmOptions &base)
{
    const std::uint64_t evals_before =
        gpusim::CostModel::evaluations();
    const bool cached_mode = base.planner == PlannerMode::Cached;
    std::uint64_t rejected_rows = 0;
    AutoPlanResult r;
    if (cached_mode) {
        const std::uint64_t key = cacheKey(curve, n, cluster, base);
        CacheEntry entry;
        if (PlanCache::instance().lookup(key, entry, rejected_rows)) {
            r.plan = entry.plan;
            r.searchedNs = entry.searchedNs;
            r.heuristicNs = entry.heuristicNs;
            r.cacheHit = true;
        } else {
            r = searchPlans(curve, n, cluster, base);
            PlanCache::instance().store(
                key, CacheEntry{r.plan, r.searchedNs, r.heuristicNs});
        }
    } else {
        r = searchPlans(curve, n, cluster, base);
    }
    r.costModelEvals = gpusim::CostModel::evaluations() - evals_before;
    recordMetrics(base, r, cached_mode, rejected_rows);
    return r;
}

void
resetPlanCacheForTesting()
{
    PlanCache::instance().reset();
}

} // namespace distmsm::msm
