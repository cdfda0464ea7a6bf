/**
 * @file
 * The traced run behind the per-layer metrics.
 *
 * For one seeded operation per workload it
 *  1. replays the operation on one thread through the layers' public
 *     entry points, in the engine's order, with one span per call,
 *     and checks that the replay reproduces the engine bit for bit;
 *  2. times one engine call at hostThreads = 1 on the same input,
 *     alternating with the replay for kRounds rounds;
 *  3. takes host on/off deltas at hostThreads = nproc through public
 *     options (checksums, and the fault plan where there is one);
 *  4. reads the cost model's MsmTimeline phases for the same plan;
 *  5. reads counts from the structs the library returns.
 * The replay covers the fault-free data path: the engine guarantees
 * that faults change where work runs and what it costs, never the
 * values, so their host cost is the on/off delta of step 3.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>

#include "bench.h"
#include "src/field/batch_inverse.h"
#include "src/gpusim/collectives.h"
#include "src/msm/batch_affine.h"
#include "src/msm/bucket_reduce.h"
#include "src/msm/checksum.h"
#include "src/msm/glv.h"
#include "src/msm/pipeline.h"
#include "src/msm/precompute.h"
#include "src/msm/scatter.h"
#include "src/msm/signed_digits.h"
#include "src/msm/workload.h"
#include "src/support/timer.h"
#include "src/zksnark/qap.h"

namespace perfbench {

namespace dm = distmsm;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Rounds of every timed comparison: replay against the 1-thread
 * engine, and each on/off pair. Per-layer times are the median over
 * the rounds, taken in alternation so a slow spell of the host hits
 * both sides.
 */
constexpr int kRounds = 3;

/**
 * Spans kept in memory and written when the run ends. A span opened
 * while another is open becomes its child; every span carries the
 * id of the operation it belongs to (0: set-up, r: replay round r).
 */
class SpanLog
{
  public:
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name)
            : log_(log), id_(log.open(name))
        {
        }
        ~Scope() { log_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        int id_;
    };

    void setOp(int op) { op_ = op; }

    /** Summed self time (span minus its children) of the spans
     *  named @p name in operation @p op, ms. */
    double
    selfMs(const std::string &name, int op) const
    {
        std::vector<double> child_ns(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child_ns[static_cast<std::size_t>(s.parent)] +=
                    s.endNs - s.startNs;
        double ns = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name && spans_[i].op == op)
                ns += spans_[i].endNs - spans_[i].startNs - child_ns[i];
        return ns / 1e6;
    }

    /** Wall time of the spans named @p name in operation @p op, ms. */
    double
    totalMs(const std::string &name, int op) const
    {
        double ns = 0.0;
        for (const Span &s : spans_)
            if (s.name == name && s.op == op)
                ns += s.endNs - s.startNs;
        return ns / 1e6;
    }

    /** Median over the replay rounds of selfMs(@p name, round). */
    double
    layerMs(const std::string &name) const
    {
        std::vector<double> rounds;
        for (int op = 1; op <= kRounds; ++op)
            rounds.push_back(selfMs(name, op));
        return median(rounds);
    }

    bool
    write(const std::string &path, const RunConfig &cfg) const
    {
        std::ofstream out(path);
        out.precision(17);
        out << "{\"workload\": \"" << cfg.workload
            << "\", \"seed\": " << cfg.seed << ", \"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i
                << ", \"name\": \"" << s.name
                << "\", \"parent\": " << s.parent
                << ", \"op\": " << s.op << ", \"start_ns\": " << s.startNs
                << ", \"end_ns\": " << s.endNs << "}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        int parent;
        int op;
        double startNs;
        double endNs;
    };

    int
    open(const char *name)
    {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back(
            {name, stack_.empty() ? -1 : stack_.back(), op_, now(), 0.0});
        stack_.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        spans_[static_cast<std::size_t>(id)].endNs = now();
        stack_.pop_back();
    }

    double
    now() const
    {
        return std::chrono::duration<double, std::nano>(Clock::now() -
                                                        origin_)
            .count();
    }

    std::vector<Span> spans_;
    std::vector<int> stack_;
    int op_ = 0;
    Clock::time_point origin_ = Clock::now();
};

/** Work counts measured at the layer boundaries of the replay. */
struct LayerCounts
{
    std::uint64_t scalars = 0;
    std::uint64_t scatterElements = 0;
    std::uint64_t globalAtomics = 0;
    std::uint64_t conflictWeight = 0;
    std::uint64_t gmemBytes = 0;
    std::uint64_t affineAdds = 0;
    std::uint64_t batchInversions = 0;
    std::uint64_t maxBucket = 0;
    std::uint64_t checksumPoints = 0;
    std::uint64_t checksumEcOps = 0;
    std::uint64_t transfers = 0;
    std::uint64_t shipBytes = 0;
    std::uint64_t bucketReduceOps = 0;
    std::uint64_t windowReduceOps = 0;
    /** Every host digest matched its device digest. */
    bool digestsMatch = true;
};

/** Cost-model phases summed over the MSMs of one operation. */
struct ModelPhases
{
    double scatter = 0, bucketSum = 0, bucketReduce = 0,
           windowReduce = 0, transfer = 0, verify = 0, tableBuild = 0,
           straggler = 0, backoff = 0;

    void
    add(const dm::msm::MsmTimeline &t)
    {
        scatter += t.scatterNs;
        bucketSum += t.bucketSumNs;
        bucketReduce += t.bucketReduceNs;
        windowReduce += t.windowReduceNs;
        transfer += t.transferNs;
        verify += t.verifyNs;
        tableBuild += t.tableBuildNs;
        straggler += t.stragglerNs;
        backoff += t.backoffNs;
    }
};

/** The bases of one replayed MSM as the engine stages them. */
struct StagedBases
{
    const std::vector<Affine> &points;
    /** phi(P_i), empty without GLV. */
    std::vector<Affine> phi;
    /** Fixed-base table, null without precompute. */
    std::shared_ptr<const dm::msm::PrecomputeTable<Curve>> table;
};

struct Replayed
{
    Xyzz value = Xyzz::identity();
    dm::gpusim::KernelStats stats;
    std::uint64_t hostOps = 0;
    dm::support::Status status = dm::support::Status::ok();
};

StagedBases
stage(const std::vector<Affine> &points, const dm::msm::MsmPlan &plan)
{
    StagedBases b{points, {}, nullptr};
    if (plan.glv) {
        b.phi.reserve(points.size());
        for (const Affine &p : points)
            b.phi.push_back(
                dm::msm::glv::endomorphismIfSupported<Curve>(p));
    }
    return b;
}

/**
 * The RLC digest the engine appends to a payload keyed by global
 * window or bucket index. Keys need not be contiguous (a device's
 * windows are w, w + numGpus, ...), so rlcDigest runs per point at
 * its key and the terms fold in payload order, as the engine's.
 */
Xyzz
keyedDigest(const std::vector<Xyzz> &points,
            const std::vector<std::uint64_t> &keys, std::uint64_t seed)
{
    Xyzz digest = Xyzz::identity();
    for (std::size_t i = 0; i < points.size(); ++i)
        digest = dm::padd(
            digest, dm::msm::rlcDigest<Curve>({points[i]}, seed, keys[i]));
    return digest;
}

/** One checksummed transfer: digest, serialize, receive, verify. */
std::vector<Xyzz>
shipReplay(const std::vector<Xyzz> &points,
           const std::vector<std::uint64_t> &keys,
           const dm::msm::MsmOptions &opt, SpanLog &log, LayerCounts &c)
{
    const SpanLog::Scope span(log, "ship");
    std::vector<Xyzz> wire = points;
    if (opt.verifyChecksums) {
        const SpanLog::Scope digest(log, "checksum");
        wire.push_back(keyedDigest(points, keys, opt.checksumSeed));
    }
    const std::vector<std::uint8_t> bytes =
        dm::msm::serializePoints<Curve>(wire);
    std::vector<Xyzz> got = dm::msm::deserializePoints<Curve>(bytes);
    ++c.transfers;
    c.shipBytes += bytes.size();
    if (got.size() != wire.size()) {
        c.digestsMatch = false;
        return got;
    }
    if (opt.verifyChecksums) {
        const SpanLog::Scope digest(log, "checksum");
        const Xyzz device = got.back();
        got.pop_back();
        if (!dm::msm::bitEqual<Curve>(
                keyedDigest(got, keys, opt.checksumSeed), device))
            c.digestsMatch = false;
        c.checksumPoints += 2 * points.size();
        c.checksumEcOps += 2 * points.size() * (dm::msm::kRhoEcOps + 1);
    }
    return got;
}

/**
 * Bring the per-device payloads to the host the way the engine's
 * fault-free merge does: straight to the host under gather, else
 * along the collective schedule, with CollectivePolicy::Auto
 * re-resolved at the actual payload size. Appends the received
 * points and their keys in arrival order.
 */
void
mergeReplay(std::vector<std::vector<Xyzz>> &payloads,
            std::vector<std::vector<std::uint64_t>> &keys,
            const dm::msm::MsmOptions &opt, const dm::msm::MsmPlan &plan,
            const dm::gpusim::Cluster &cluster, SpanLog &log,
            LayerCounts &c, std::vector<Xyzz> &out,
            std::vector<std::uint64_t> &out_keys)
{
    std::vector<int> members;
    std::uint64_t max_bytes = 0;
    for (int d = 0; d < cluster.numGpus(); ++d) {
        const auto &p = payloads[static_cast<std::size_t>(d)];
        if (p.empty())
            continue;
        members.push_back(d);
        max_bytes = std::max<std::uint64_t>(max_bytes,
                                            p.size() * sizeof(Xyzz));
    }
    auto to_host = [&](int d) {
        const auto &p = payloads[static_cast<std::size_t>(d)];
        const auto &k = keys[static_cast<std::size_t>(d)];
        const std::vector<Xyzz> got = shipReplay(p, k, opt, log, c);
        out.insert(out.end(), got.begin(), got.end());
        out_keys.insert(out_keys.end(), k.begin(), k.end());
    };
    dm::gpusim::CollectiveAlgo algo = plan.collective;
    if (algo != dm::gpusim::CollectiveAlgo::Gather &&
        opt.collective == dm::gpusim::CollectivePolicy::Auto)
        algo = dm::gpusim::CollectiveTimeEstimator(cluster.topology(),
                                                   cluster.device())
                   .pick(dm::gpusim::CollectivePolicy::Auto,
                         static_cast<int>(members.size()), max_bytes);
    const dm::gpusim::CollectiveSchedule sched =
        plan.collective == dm::gpusim::CollectiveAlgo::Gather
            ? dm::gpusim::CollectiveSchedule{}
            : dm::gpusim::buildCollectiveSchedule(
                  algo, cluster.topology(), members);
    if (sched.root < 0) {
        for (const int m : members)
            to_host(m);
        return;
    }
    for (const dm::gpusim::CollectiveStep &step : sched.steps) {
        auto &src_pts = payloads[static_cast<std::size_t>(step.src)];
        auto &src_keys = keys[static_cast<std::size_t>(step.src)];
        std::vector<Xyzz> ship_pts, stay_pts;
        std::vector<std::uint64_t> ship_keys, stay_keys;
        for (std::size_t i = 0; i < src_keys.size(); ++i) {
            const bool moves =
                step.shard < 0 ||
                static_cast<int>(src_keys[i] %
                                 static_cast<std::uint64_t>(
                                     sched.shardCount)) == step.shard;
            (moves ? ship_pts : stay_pts).push_back(src_pts[i]);
            (moves ? ship_keys : stay_keys).push_back(src_keys[i]);
        }
        src_pts = std::move(stay_pts);
        src_keys = std::move(stay_keys);
        const std::vector<Xyzz> got =
            shipReplay(ship_pts, ship_keys, opt, log, c);
        auto &dst_pts = payloads[static_cast<std::size_t>(step.dst)];
        auto &dst_keys = keys[static_cast<std::size_t>(step.dst)];
        dst_pts.insert(dst_pts.end(), got.begin(), got.end());
        dst_keys.insert(dst_keys.end(), ship_keys.begin(),
                        ship_keys.end());
    }
    to_host(sched.root);
}

/**
 * Replay one MSM on this thread through the layer entry points, in
 * the engine's order: decompose, then per window (or once, for the
 * combined precompute pass) scatter, bucket sum and bucket reduce,
 * then ship/merge with checksums, then the Horner window reduce.
 */
Replayed
replayMsm(const StagedBases &in, const std::vector<Scalar> &scalars,
          const dm::msm::MsmOptions &opt, const dm::msm::MsmPlan &plan,
          const dm::gpusim::Cluster &cluster, SpanLog &log,
          LayerCounts &c)
{
    // Every workload accumulates buckets batch-affine; the replay
    // covers that bucket sum only.
    DISTMSM_REQUIRE(opt.batchAffine, "replay needs batch-affine sums");
    const SpanLog::Scope msm_span(log, "msm");
    Replayed out;
    const unsigned s = plan.windowBits;
    const std::size_t n_buckets = opt.signedDigits
                                      ? (std::size_t{1} << (s - 1)) + 1
                                      : std::size_t{1} << s;
    const std::size_t n_base = in.points.size();
    const int n_gpus = cluster.numGpus();

    std::vector<Scalar> half;
    std::vector<std::uint8_t> glv_neg;
    std::vector<std::vector<std::int32_t>> digits;
    {
        const SpanLog::Scope span(log, "decompose");
        if (plan.glv) {
            half.resize(2 * n_base);
            glv_neg.assign(2 * n_base, 0);
            for (std::size_t i = 0; i < n_base; ++i) {
                const auto split = dm::msm::glv::decompose<Curve>(scalars[i]);
                half[i] = split.k1;
                half[n_base + i] = split.k2;
                glv_neg[i] = split.neg1;
                glv_neg[n_base + i] = split.neg2;
            }
        }
        const std::vector<Scalar> &eff = plan.glv ? half : scalars;
        if (opt.signedDigits) {
            digits.resize(eff.size());
            for (std::size_t i = 0; i < eff.size(); ++i)
                digits[i] = dm::msm::signedWindowDigits(
                    eff[i], plan.scalarBits, s);
        }
    }
    c.scalars += n_base;
    const std::vector<Scalar> &eff = plan.glv ? half : scalars;
    const std::size_t n_eff = eff.size();
    auto digit_of = [&](unsigned w, std::size_t i, std::uint32_t &id,
                        std::uint8_t &neg) {
        if (opt.signedDigits) {
            const std::int32_t d = digits[i][w];
            id = static_cast<std::uint32_t>(d < 0 ? -d : d);
            neg = d < 0;
        } else {
            id = static_cast<std::uint32_t>(
                eff[i].bits(static_cast<std::size_t>(w) * s, s));
            neg = 0;
        }
        if (plan.glv)
            neg ^= glv_neg[i];
    };

    dm::msm::ScatterConfig scatter_cfg = opt.scatter;
    scatter_cfg.hostThreads = 1;
    scatter_cfg.fieldBackend = plan.fieldBackend;
    scatter_cfg.trace = nullptr;
    auto scatter = [&](const std::vector<std::uint32_t> &ids) {
        return opt.hierarchicalScatter
                   ? dm::msm::hierarchicalScatter(ids, s, scatter_cfg)
                   : dm::msm::naiveScatter(ids, s, scatter_cfg);
    };
    auto count_scatter = [&](const dm::msm::ScatterResult &r,
                             std::size_t elements) {
        c.scatterElements += elements;
        c.globalAtomics += r.stats.globalAtomics;
        c.conflictWeight += r.stats.globalConflictWeight;
        c.gmemBytes += r.stats.gmemBytes;
        for (const auto &bucket : r.buckets)
            c.maxBucket = std::max<std::uint64_t>(c.maxBucket,
                                                  bucket.size());
    };
    // Bucket groups run one after another here; the engine runs them
    // as one task per simulated device and merges them lockstep.
    auto sum_buckets = [&](const dm::msm::ScatterResult &r,
                           auto &&point_of, int groups,
                           std::vector<Xyzz> &sums) {
        dm::gpusim::KernelStats ec;
        std::vector<dm::gpusim::KernelStats> group_stats(
            static_cast<std::size_t>(groups));
        {
            const SpanLog::Scope span(log, "bucket_sum");
            for (int g = 0; g < groups; ++g) {
                const std::size_t lo = 1 + (n_buckets - 1) * g / groups;
                const std::size_t hi =
                    1 + (n_buckets - 1) * (g + 1) / groups;
                dm::msm::BatchAffineScratch<Curve> scratch;
                dm::msm::batchAffineAccumulate<Curve>(
                    r.buckets, lo, hi, point_of, sums,
                    group_stats[static_cast<std::size_t>(g)], scratch);
            }
        }
        for (const auto &gs : group_stats)
            ec.mergeLockstep(gs);
        c.affineAdds += ec.affineAddOps;
        c.batchInversions += ec.batchInvOps;
        return ec;
    };
    // Fault-free placement: window w on device w mod numGpus, bucket
    // slice g (combined pass) on device g.
    std::vector<std::vector<Xyzz>> payloads(
        static_cast<std::size_t>(n_gpus));
    std::vector<std::vector<std::uint64_t>> keys(
        static_cast<std::size_t>(n_gpus));
    std::vector<Xyzz> merged;
    std::vector<std::uint64_t> merged_keys;

    if (!plan.precompute) {
        std::vector<Xyzz> window_points(plan.numWindows);
        const int groups =
            plan.bucketsSplitAcrossGpus ? plan.gpusPerWindow : 1;
        for (unsigned w = 0; w < plan.numWindows; ++w) {
            std::vector<std::uint32_t> ids(n_eff);
            std::vector<std::uint8_t> negs(n_eff);
            dm::msm::ScatterResult sc;
            {
                const SpanLog::Scope span(log, "scatter");
                for (std::size_t i = 0; i < n_eff; ++i)
                    digit_of(w, i, ids[i], negs[i]);
                sc = scatter(ids);
            }
            if (!sc.ok) {
                out.status = sc.status;
                return out;
            }
            count_scatter(sc, n_eff);
            auto point_of = [&](std::uint32_t idx) {
                const Affine &base = idx < n_base
                                         ? in.points[idx]
                                         : in.phi[idx - n_base];
                return negs[idx] ? base.negated() : base;
            };
            std::vector<Xyzz> sums(n_buckets, Xyzz::identity());
            const auto ec = sum_buckets(sc, point_of, groups, sums);
            dm::msm::ReduceStats rs;
            {
                const SpanLog::Scope span(log, "bucket_reduce");
                window_points[w] =
                    dm::msm::bucketReduceSerial<Curve>(sums, &rs);
            }
            c.bucketReduceOps += rs.padds + rs.pdbls;
            out.stats.merge(sc.stats);
            out.stats.merge(ec);
            out.hostOps += rs.padds + 1;
        }
        for (unsigned w = 0; w < plan.numWindows; ++w) {
            const std::size_t d = w % static_cast<unsigned>(n_gpus);
            payloads[d].push_back(window_points[w]);
            keys[d].push_back(w);
        }
        mergeReplay(payloads, keys, opt, plan, cluster, log, c, merged,
                    merged_keys);
        for (std::size_t i = 0; i < merged.size(); ++i)
            window_points[static_cast<std::size_t>(merged_keys[i])] =
                merged[i];
        std::uint64_t pdbls = 0;
        {
            const SpanLog::Scope span(log, "window_reduce");
            Xyzz total = Xyzz::identity();
            for (unsigned w = plan.numWindows; w-- > 0;) {
                if (!total.isIdentity())
                    for (unsigned b = 0; b < s; ++b, ++pdbls)
                        total = dm::pdbl(total);
                total = dm::padd(total, window_points[w]);
            }
            out.value = total;
        }
        c.windowReduceOps += pdbls + plan.numWindows;
        out.hostOps += pdbls;
        return out;
    }

    // Combined precompute pass: element e = w * n_eff + i adds table
    // row w of base i to the bucket of digit (w, i).
    DISTMSM_REQUIRE(in.table != nullptr, "precompute replay needs a table");
    const std::size_t total = std::size_t{plan.numWindows} * n_eff;
    std::vector<std::uint32_t> ids(total);
    std::vector<std::uint8_t> negs(total);
    dm::msm::ScatterResult sc;
    {
        const SpanLog::Scope span(log, "scatter");
        for (std::size_t i = 0; i < n_eff; ++i)
            for (unsigned w = 0; w < plan.numWindows; ++w) {
                const std::size_t e = std::size_t{w} * n_eff + i;
                digit_of(w, i, ids[e], negs[e]);
            }
        sc = scatter(ids);
    }
    if (!sc.ok) {
        out.status = sc.status;
        return out;
    }
    count_scatter(sc, total);
    out.stats.merge(sc.stats);
    auto point_of = [&](std::uint32_t idx) {
        const Affine &base = in.table->rows[idx / n_eff][idx % n_eff];
        return negs[idx] ? base.negated() : base;
    };
    std::vector<Xyzz> sums(n_buckets, Xyzz::identity());
    out.stats.merge(sum_buckets(sc, point_of, n_gpus, sums));
    for (int g = 0; g < n_gpus; ++g) {
        const std::size_t lo = 1 + (n_buckets - 1) * g / n_gpus;
        const std::size_t hi = 1 + (n_buckets - 1) * (g + 1) / n_gpus;
        for (std::size_t b = lo; b < hi; ++b) {
            payloads[static_cast<std::size_t>(g)].push_back(sums[b]);
            keys[static_cast<std::size_t>(g)].push_back(b);
        }
    }
    mergeReplay(payloads, keys, opt, plan, cluster, log, c, merged,
                merged_keys);
    for (std::size_t i = 0; i < merged.size(); ++i)
        sums[static_cast<std::size_t>(merged_keys[i])] = merged[i];
    dm::msm::ReduceStats rs;
    {
        const SpanLog::Scope span(log, "bucket_reduce");
        out.value = dm::msm::bucketReduceSerial<Curve>(sums, &rs);
    }
    c.bucketReduceOps += rs.padds + rs.pdbls;
    out.hostOps += rs.padds + rs.pdbls;
    return out;
}

volatile std::uint64_t g_sink = 0;

/** Median ns per operation of @p fn, which performs @p ops of them. */
template <typename Fn>
double
nsPerOp(std::size_t ops, Fn &&fn)
{
    std::vector<double> t;
    for (int rep = 0; rep < 7; ++rep) {
        const dm::Timer timer;
        fn();
        t.push_back(timer.nanoseconds() / static_cast<double>(ops));
    }
    return median(t);
}

/** Single-thread costs of the field and curve primitives. */
void
addPrimitiveMetrics(Report &rep, const std::vector<Affine> &points,
                    std::uint64_t seed)
{
    using Fq = Curve::Fq;
    dm::Prng prng(seed ^ 0xF1E1DF1E1Dull);
    constexpr std::size_t kChain = std::size_t{1} << 20;
    Fq a = Fq::random(prng);
    const Fq b = Fq::random(prng);
    rep.add("field.mul_ns", nsPerOp(kChain, [&] {
                for (std::size_t i = 0; i < kChain; ++i)
                    a = a * b;
            }),
            "ns");
    rep.add("field.sqr_ns", nsPerOp(kChain, [&] {
                for (std::size_t i = 0; i < kChain; ++i)
                    a = a.sqr();
            }),
            "ns");
    std::vector<Fq> batch(4096), scratch;
    for (Fq &v : batch)
        v = Fq::random(prng) + Fq::one();
    constexpr int kBatches = 32;
    rep.add("field.batch_inv_ns",
            nsPerOp(batch.size() * kBatches, [&] {
                for (int i = 0; i < kBatches; ++i)
                    dm::batchInverse(batch, scratch);
            }),
            "ns");
    const std::size_t mask = points.size() - 1; // a power of two
    constexpr std::size_t kEcChain = std::size_t{1} << 16;
    Xyzz acc = Xyzz::fromAffine(Curve::generator());
    rep.add("ec.pacc_ns", nsPerOp(kEcChain, [&] {
                for (std::size_t i = 0; i < kEcChain; ++i)
                    acc = dm::pacc(acc, points[i & mask]);
            }),
            "ns");
    rep.add("ec.pdbl_ns", nsPerOp(kEcChain, [&] {
                for (std::size_t i = 0; i < kEcChain; ++i)
                    acc = dm::pdbl(acc);
            }),
            "ns");
    g_sink = a.montgomeryForm().limb[0] ^ batch[0].montgomeryForm().limb[0] ^
             acc.x.montgomeryForm().limb[0];
}

/** Median planMsm wall time and the cost-model calls of one plan. */
struct PlanCost
{
    double ms = 0.0;
    std::uint64_t evals = 0;
};

PlanCost
planCost(std::uint64_t n, const dm::gpusim::Cluster &cluster,
         const dm::msm::MsmOptions &opt, SpanLog &log)
{
    const auto profile = curveProfile();
    PlanCost cost;
    const std::uint64_t before = dm::gpusim::CostModel::evaluations();
    dm::msm::planMsm(profile, n, cluster, opt);
    cost.evals = dm::gpusim::CostModel::evaluations() - before;
    std::vector<double> t;
    for (int rep = 0; rep < 15; ++rep) {
        const SpanLog::Scope span(log, "plan");
        const dm::Timer timer;
        dm::msm::planMsm(profile, n, cluster, opt);
        t.push_back(timer.milliseconds());
    }
    cost.ms = median(t);
    return cost;
}

/** Everything one traced run measures, emitted in a fixed order. */
struct LayerReport
{
    LayerCounts counts;
    ModelPhases model;
    PlanCost plan;
    double modelMsmMs = 0, model2p24Ms = 0;
    double tableBuildMs = 0, tableBuildPoints = 0;
    double checksumOverheadMs = 0, faultOverheadMs = 0;
    dm::gpusim::FaultReport faults;
    double proveNttMs = 0, proveMsmMs = 0, proveOtherMs = 0;
    double nttPoints = 0;
    double ms1t = 0, msNproc = 0;
};

/**
 * Print each round's replay and 1-thread times: single-thread work
 * here swings by a fifth between rounds, so engine.glue_ms (their
 * difference) can come out negative.
 */
void
printRounds(const SpanLog &log, const char *root,
            const std::vector<double> &t_1t)
{
    std::printf("# rounds:");
    for (int op = 1; op <= kRounds; ++op)
        std::printf(" replay %.1f ms / engine 1t %.1f ms;",
                    log.totalMs(root, op),
                    t_1t[static_cast<std::size_t>(op - 1)]);
    std::printf("\n");
}

void
emitLayers(Report &rep, const SpanLog &log, const LayerReport &r)
{
    const LayerCounts &c = r.counts;
    const ModelPhases &m = r.model;
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    rep.add("decompose.ms", log.layerMs("decompose"), "ms");
    rep.add("decompose.scalars", d(c.scalars), "count");
    rep.add("scatter.ms", log.layerMs("scatter"), "ms");
    rep.add("scatter.elements", d(c.scatterElements), "count");
    rep.add("scatter.global_atomics", d(c.globalAtomics), "count");
    rep.add("scatter.conflict_weight", d(c.conflictWeight), "count");
    rep.add("scatter.gmem_mb", d(c.gmemBytes) / (1 << 20), "MiB");
    rep.add("scatter.model_ms", m.scatter / 1e6, "sim_ms");
    rep.add("bucket_sum.ms", log.layerMs("bucket_sum"), "ms");
    rep.add("bucket_sum.affine_adds", d(c.affineAdds), "count");
    rep.add("bucket_sum.batch_inversions", d(c.batchInversions), "count");
    rep.add("bucket_sum.max_bucket", d(c.maxBucket), "count");
    rep.add("bucket_sum.model_ms", m.bucketSum / 1e6, "sim_ms");
    rep.add("checksum.ms", log.layerMs("checksum"), "ms");
    rep.add("checksum.points", d(c.checksumPoints), "count");
    rep.add("checksum.ec_ops", d(c.checksumEcOps), "count");
    rep.add("checksum.overhead_ms", r.checksumOverheadMs, "ms");
    rep.add("checksum.model_ms", m.verify / 1e6, "sim_ms");
    rep.add("bucket_reduce.ms", log.layerMs("bucket_reduce"), "ms");
    rep.add("bucket_reduce.ec_ops", d(c.bucketReduceOps), "count");
    rep.add("bucket_reduce.model_ms", m.bucketReduce / 1e6, "sim_ms");
    rep.add("window_reduce.ms", log.layerMs("window_reduce"), "ms");
    rep.add("window_reduce.ec_ops", d(c.windowReduceOps), "count");
    rep.add("window_reduce.model_ms", m.windowReduce / 1e6, "sim_ms");
    rep.add("ship.ms", log.layerMs("ship"), "ms");
    rep.add("ship.transfers", d(c.transfers), "count");
    rep.add("ship.bytes", d(c.shipBytes), "bytes");
    rep.add("ship.model_ms", m.transfer / 1e6, "sim_ms");
    rep.add("fault.overhead_ms", r.faultOverheadMs, "ms");
    rep.add("fault.retries", d(r.faults.retries), "count");
    rep.add("fault.reshards", d(r.faults.windowsResharded), "count");
    rep.add("fault.respawns", d(r.faults.stragglerRespawns), "count");
    rep.add("fault.straggler_model_ms", m.straggler / 1e6, "sim_ms");
    rep.add("fault.backoff_model_ms", m.backoff / 1e6, "sim_ms");
    rep.add("table_build.ms", r.tableBuildMs, "ms");
    rep.add("table_build.points", r.tableBuildPoints, "count");
    rep.add("table_build.model_ms", m.tableBuild / 1e6, "sim_ms");
    rep.add("plan.ms", r.plan.ms, "ms");
    rep.add("plan.cost_model_evals", d(r.plan.evals), "count");
    rep.add("prove.ntt_ms", r.proveNttMs, "ms");
    rep.add("prove.msm_ms", r.proveMsmMs, "ms");
    rep.add("prove.other_ms", r.proveOtherMs, "ms");
    rep.add("ntt.points", r.nttPoints, "count");
    double layers_ms = 0.0;
    for (const char *layer :
         {"ntt", "decompose", "scatter", "bucket_sum", "checksum", "ship",
          "bucket_reduce", "window_reduce"})
        layers_ms += log.layerMs(layer);
    rep.add("engine.ms_1t", r.ms1t, "ms");
    rep.add("engine.glue_ms", r.ms1t - layers_ms, "ms");
    rep.add("engine.parallel_speedup",
            r.msNproc > 0 ? r.ms1t / r.msNproc : 0.0, "x");
    rep.add("model.msm_ms", r.modelMsmMs, "sim_ms");
    rep.add("model.2p24_ms", r.model2p24Ms, "sim_ms");
}

/** The replay reproduces the engine result and its counters. */
void
checkReplay(Report &rep, const Replayed &replay,
            const dm::support::StatusOr<MsmOut> &engine,
            const std::string &what)
{
    rep.check(replay.status.isOk() && engine.isOk() &&
                  dm::msm::bitEqual<Curve>(replay.value,
                                           engine->value) &&
                  replay.stats == engine->stats &&
                  replay.hostOps == engine->hostOps,
              what + ": replay differs from the engine");
}

/** The same statistics at hostThreads 1 and nproc. */
void
checkThreads(Report &rep, const dm::support::StatusOr<MsmOut> &one,
             const dm::support::StatusOr<MsmOut> &many,
             const std::string &what)
{
    if (!one.isOk() || !many.isOk() || !sameStats(*one, *many) ||
        !dm::msm::bitEqual<Curve>(one->value, many->value))
        rep.problem(what + ": results or statistics differ between "
                           "hostThreads 1 and nproc");
}

Report
tracedMsm(const Workload &w, const RunConfig &cfg)
{
    Report rep;
    SpanLog log;
    LayerReport lr;
    dm::Prng prng(cfg.seed);
    const std::size_t n = std::size_t{1} << w.logN;
    const KnownBases bases = makeBases(n, prng);
    const dm::gpusim::Cluster cluster = w.cluster();
    const dm::msm::MsmOptions options = w.options(cfg.hostThreads);
    dm::msm::BaseTableCache<Curve>::global().clear();
    const Engine engine(bases.points, cluster, options);
    const dm::msm::MsmPlan &plan = engine.plan();
    const std::vector<Scalar> k0 =
        dm::msm::generateScalars<Curve>(n, prng);
    const Xyzz want0 = expectedMsm(bases, k0);

    addPrimitiveMetrics(rep, bases.points, cfg.seed);
    lr.plan = planCost(n, cluster, options, log);

    StagedBases staged = stage(bases.points, plan);
    if (plan.precompute) {
        std::vector<Affine> all = bases.points;
        all.insert(all.end(), staged.phi.begin(), staged.phi.end());
        const dm::Timer timer;
        {
            const SpanLog::Scope span(log, "table_build");
            staged.table = dm::msm::buildPrecomputeTable<Curve>(
                all, plan.numWindows, plan.windowBits, plan.glv, 1);
        }
        lr.tableBuildMs = timer.milliseconds();
        lr.tableBuildPoints =
            static_cast<double>(all.size()) * plan.numWindows;
    }
    // Replay rounds alternating with the engine at hostThreads = 1
    // (its table is a cache hit). Counts come from the first round.
    dm::msm::MsmOptions one_opts = options;
    one_opts.hostThreads = 1;
    const Engine engine_1t(bases.points, cluster, one_opts);
    Replayed replay;
    dm::support::StatusOr<MsmOut> r1 = engine_1t.tryCompute(k0);
    std::vector<double> t_1t;
    for (int round = 1; round <= kRounds; ++round) {
        LayerCounts counts;
        log.setOp(round);
        replay = replayMsm(staged, k0, options, plan, cluster, log, counts);
        log.setOp(0);
        rep.check(replay.status.isOk() && replay.value == want0 &&
                      counts.digestsMatch,
                  "replayed MSM is wrong or failed a checksum");
        if (round == 1)
            lr.counts = counts;
        const dm::Timer timer;
        r1 = engine_1t.tryCompute(k0);
        t_1t.push_back(timer.milliseconds());
        rep.check(r1.isOk() && r1->value == want0,
                  "engine at hostThreads 1 is wrong");
    }
    lr.ms1t = median(t_1t);
    printRounds(log, "msm", t_1t);

    // On/off deltas at nproc threads, interleaved round by round.
    // Both checksum sides run without faults: with checksums off, a
    // corrupted transfer would go undetected and the result would be
    // wrong. The faults workload runs checksums on, so its call
    // differs from the checked side by the fault plan alone.
    dm::msm::MsmOptions checked = options;
    checked.faults = dm::gpusim::FaultPlan{};
    checked.verifyChecksums = true;
    dm::msm::MsmOptions unchecked = checked;
    unchecked.verifyChecksums = false;
    const bool faulted = !options.faults.empty();
    const Engine checked_engine(bases.points, cluster, checked);
    const Engine unchecked_engine(bases.points, cluster, unchecked);
    std::vector<double> t_main, t_checked, t_unchecked;
    dm::support::StatusOr<MsmOut> r_main = engine.tryCompute(k0);
    auto timed = [&](const Engine &e, std::vector<double> &t) {
        const dm::Timer timer;
        const auto r = e.tryCompute(k0);
        t.push_back(timer.milliseconds());
        rep.check(r.isOk() && r->value == want0,
                  "engine call of an on/off delta is wrong");
        if (r.isOk() && r1.isOk() && r->stats != r1->stats)
            rep.problem("kernel statistics differ between option sets");
        return r;
    };
    for (int round = 0; round < kRounds; ++round) {
        r_main = timed(engine, t_main);
        timed(checked_engine, t_checked);
        timed(unchecked_engine, t_unchecked);
    }
    lr.msNproc = median(t_main);
    lr.checksumOverheadMs = median(t_checked) - median(t_unchecked);
    if (faulted)
        lr.faultOverheadMs = lr.msNproc - median(t_checked);
    checkThreads(rep, r1, r_main, "MSM");
    checkReplay(rep, replay, r_main, "MSM");
    if (r_main.isOk())
        lr.faults = r_main->fault;

    const auto profile = curveProfile();
    const auto timeline =
        dm::msm::estimateDistMsmWithPlan(profile, n, cluster, options, plan);
    lr.model.add(timeline);
    lr.modelMsmMs = timeline.totalMs();
    lr.model2p24Ms = estimate2p24(cluster, options).totalMs();

    emitLayers(rep, log, lr);
    if (!cfg.spansPath.empty() && !log.write(cfg.spansPath, cfg))
        rep.problem("could not write spans to " + cfg.spansPath);
    return rep;
}

Report
tracedGroth16(const Workload &w, const RunConfig &cfg)
{
    namespace zk = dm::zksnark;
    Report rep;
    SpanLog log;
    LayerReport lr;
    dm::Prng prng(cfg.seed);
    const dm::gpusim::Cluster cluster = w.cluster();
    const dm::msm::MsmOptions options = w.options(cfg.hostThreads);
    // The same stream as the closed loop: witness 0 of this seed.
    const RollupCircuit c0 =
        buildRollup(Fr::random(prng), Fr::random(prng));
    const auto keys =
        zk::setup<Curve>(c0.r1cs, zk::Trapdoor<Fr>::random(prng));
    const zk::ProverEngines<Curve> engines(keys.pk, cluster, options);

    addPrimitiveMetrics(rep, keys.pk.hPoints, cfg.seed);
    const std::vector<Fr> private_wires(
        c0.wires.begin() + static_cast<std::ptrdiff_t>(keys.pk.numPublic) +
            1,
        c0.wires.end());
    struct Msm
    {
        const char *name;
        const std::vector<Affine> &points;
        const Engine &engine;
        std::vector<Scalar> scalars;
    };
    std::vector<Msm> msms = {
        {"A", keys.pk.aPoints, *engines.a, rawScalars(c0.wires)},
        {"B", keys.pk.bPoints, *engines.b, rawScalars(c0.wires)},
        {"L", keys.pk.lPoints, *engines.l, rawScalars(private_wires)},
        {"H", keys.pk.hPoints, *engines.h, {}}};
    for (const Msm &m : msms) {
        const PlanCost pc = planCost(m.points.size(), cluster, options, log);
        lr.plan.ms += pc.ms;
        lr.plan.evals += pc.evals;
    }
    std::vector<StagedBases> staged;
    for (const Msm &m : msms)
        staged.push_back(stage(m.points, m.engine.plan()));

    dm::msm::MsmOptions one_opts = options;
    one_opts.hostThreads = 1;
    const zk::ProverEngines<Curve> engines_1t(keys.pk, cluster, one_opts);
    dm::Prng blinding(cfg.seed ^ 0xB1D0B1D0ull);
    auto prove = [&](const zk::ProverEngines<Curve> &e,
                     zk::ProverTiming *timing) {
        const dm::Timer timer;
        const auto proof = zk::tryProve(keys.pk, c0.r1cs, c0.wires,
                                        blinding, timing, nullptr, &e);
        const double ms = timer.milliseconds();
        rep.check(proof.isOk() &&
                      zk::verify(keys.vk, *proof, c0.publicInputs),
                  "traced proof does not verify");
        return ms;
    };

    // Replay rounds (the quotient, then each engine's MSM)
    // alternating with a proof at hostThreads = 1. Counts come from
    // the first round.
    std::vector<Replayed> replays;
    std::vector<double> t_1t;
    for (int round = 1; round <= kRounds; ++round) {
        LayerCounts counts;
        replays.clear();
        log.setOp(round);
        {
            const SpanLog::Scope prove_span(log, "prove");
            std::vector<Fr> h;
            {
                const SpanLog::Scope span(log, "ntt");
                h = zk::computeQuotientH(c0.r1cs, c0.wires);
            }
            msms[3].scalars = rawScalars(h);
            for (std::size_t i = 0; i < msms.size(); ++i)
                replays.push_back(replayMsm(
                    staged[i], msms[i].scalars, options,
                    msms[i].engine.plan(), cluster, log, counts));
        }
        log.setOp(0);
        if (!counts.digestsMatch)
            rep.problem("a replayed transfer failed its checksum");
        if (round == 1)
            lr.counts = counts;
        t_1t.push_back(prove(engines_1t, nullptr));
    }
    lr.ms1t = median(t_1t);
    printRounds(log, "prove", t_1t);
    lr.nttPoints = static_cast<double>(zk::qapDomainSize(c0.r1cs));

    // Each MSM at hostThreads 1 and nproc against its replay.
    const Engine *one_engines[] = {engines_1t.a.get(), engines_1t.b.get(),
                                   engines_1t.l.get(), engines_1t.h.get()};
    for (std::size_t i = 0; i < msms.size(); ++i) {
        const auto many = msms[i].engine.tryCompute(msms[i].scalars);
        const auto one = one_engines[i]->tryCompute(msms[i].scalars);
        checkThreads(rep, one, many, msms[i].name);
        checkReplay(rep, replays[i], many, msms[i].name);
        const auto profile = curveProfile();
        lr.model.add(dm::msm::estimateDistMsmWithPlan(
            profile, msms[i].points.size(), cluster, options,
            msms[i].engine.plan()));
    }

    dm::msm::MsmOptions unchecked = options;
    unchecked.verifyChecksums = false;
    const zk::ProverEngines<Curve> engines_unchecked(keys.pk, cluster,
                                                     unchecked);
    std::vector<double> t_main, t_unchecked, ntt, msm, other;
    for (int round = 0; round < kRounds; ++round) {
        zk::ProverTiming timing;
        t_main.push_back(prove(engines, &timing));
        ntt.push_back(timing.nttSeconds * 1e3);
        msm.push_back(timing.msmSeconds * 1e3);
        other.push_back(timing.otherSeconds * 1e3);
        t_unchecked.push_back(prove(engines_unchecked, nullptr));
    }
    lr.msNproc = median(t_main);
    lr.checksumOverheadMs = lr.msNproc - median(t_unchecked);
    lr.proveNttMs = median(ntt);
    lr.proveMsmMs = median(msm);
    lr.proveOtherMs = median(other);

    const auto profile = curveProfile();
    const std::vector<std::uint64_t> sizes = {
        keys.pk.aPoints.size(), keys.pk.bPoints.size(),
        keys.pk.lPoints.size(), keys.pk.hPoints.size()};
    lr.modelMsmMs = dm::msm::estimateProvingPipeline(profile, sizes,
                                                     cluster, options)
                        .pipelinedNs /
                    1e6;
    lr.model2p24Ms = estimate2p24(cluster, options).totalMs();

    emitLayers(rep, log, lr);
    if (!cfg.spansPath.empty() && !log.write(cfg.spansPath, cfg))
        rep.problem("could not write spans to " + cfg.spansPath);
    return rep;
}

} // namespace

Report
runTraced(const Workload &w, const RunConfig &cfg)
{
    return w.kind == Kind::Groth16 ? tracedGroth16(w, cfg)
                                   : tracedMsm(w, cfg);
}

} // namespace perfbench
