/**
 * @file
 * Hierarchical-topology and collective-merge tests.
 *
 * The contract under test (DESIGN.md Section 7): a Topology only
 * changes the *model* — the functional result of an MSM is
 * bit-identical whichever merge strategy routes the partial sums
 * (gather, ring or tree), at every topology shape and hostThreads
 * setting, because the merged keys are disjoint and the schedules
 * are pure functions of (algo, topology, members). The
 * CollectiveTimeEstimator is pinned by KATs (legacy flat gather must
 * reproduce Cluster::gatherNs bit-exactly) and the Auto tuner must
 * agree with the measured-best strategy on contrasting topologies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/ec/curves.h"
#include "src/gpusim/collectives.h"
#include "src/gpusim/topology.h"
#include "src/msm/checksum.h"
#include "src/msm/distmsm.h"
#include "src/msm/reference.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"
#include "tests/spec_mutator.h"

namespace distmsm::msm {
namespace {

using gpusim::Cluster;
using gpusim::CollectiveAlgo;
using gpusim::CollectivePolicy;
using gpusim::CollectiveSchedule;
using gpusim::CollectiveTimeEstimator;
using gpusim::DeviceSpec;
using gpusim::IntraTopo;
using gpusim::Topology;
using support::StatusCode;

MsmOptions
topoTestOptions(unsigned s = 8)
{
    MsmOptions o;
    o.windowBitsOverride = s;
    o.scatter.blockDim = 64;
    o.scatter.gridDim = 4;
    o.scatter.sharedBytesPerBlock = 128 * 1024;
    o.hostThreads = 1;
    return o;
}

// --- Topology::parse -------------------------------------------------

TEST(TopologyParse, AcceptsFullGrammar)
{
    const auto topo_or = Topology::parse(
        "nodes=4,gpus=8,intra=ring,nvlink=300,nvlink_us=1.5,"
        "ib=50,ib_us=8,nics=4");
    ASSERT_TRUE(topo_or.isOk()) << topo_or.status().toString();
    const Topology &t = *topo_or;
    EXPECT_EQ(t.totalGpus, 32);
    EXPECT_EQ(t.gpusPerNode, 8);
    EXPECT_EQ(t.numNodes(), 4);
    EXPECT_EQ(t.intra, IntraTopo::Ring);
    EXPECT_DOUBLE_EQ(t.intraLink.bandwidthGBs, 300.0);
    EXPECT_DOUBLE_EQ(t.intraLink.latencyUs, 1.5);
    EXPECT_DOUBLE_EQ(t.interLink.bandwidthGBs, 50.0);
    EXPECT_DOUBLE_EQ(t.interLink.latencyUs, 8.0);
    EXPECT_EQ(t.nicsPerNode, 4);
    EXPECT_TRUE(t.hierarchical);
}

TEST(TopologyParse, EmptySpecIsOneDefaultNode)
{
    const auto topo_or = Topology::parse("");
    ASSERT_TRUE(topo_or.isOk());
    EXPECT_EQ(topo_or->numNodes(), 1);
    EXPECT_EQ(topo_or->totalGpus, 8);
    EXPECT_TRUE(topo_or->hierarchical);
}

TEST(TopologyParse, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "bogus=3",          // unknown key
        "nodes",            // not key=value
        "nodes=0",          // below 1
        "nodes=x",          // non-numeric
        "nodes=1.5",        // non-integral
        "intra=mesh",       // unknown wiring
        "nvlink=-1",        // non-positive
        "nvlink=0",         // non-positive
        "ib_us=oops",       // non-numeric
        "nodes=100000,gpus=100000", // device count overflows int
        "gpus=1e30",        // out of int range
        "nvlink=nan",       // non-finite
        "nvlink_us=nan",    // non-finite
        "ib=inf",           // non-finite
    };
    for (const char *spec : bad) {
        const auto topo_or = Topology::parse(spec);
        EXPECT_FALSE(topo_or.isOk()) << "accepted: " << spec;
        if (!topo_or.isOk()) {
            EXPECT_EQ(topo_or.status().code(),
                      StatusCode::InvalidArgument)
                << spec;
        }
    }
}

TEST(TopologyParse, BadCollectiveNameRejected)
{
    const auto bad = gpusim::parseCollectivePolicy("mesh");
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(*gpusim::parseCollectivePolicy("auto"),
              CollectivePolicy::Auto);
    EXPECT_EQ(*gpusim::parseCollectivePolicy("ring"),
              CollectivePolicy::Ring);
}

// Mutants of the accepted specs above parse to a typed error or to a
// topology a Cluster can be built on: at least one GPU, finite
// positive links.
TEST(TopologyParse, MutantsAreRejectedOrWellFormed)
{
    const std::vector<std::string> seeds = {
        "nodes=4,gpus=8,intra=ring,nvlink=300,nvlink_us=1.5,"
        "ib=50,ib_us=8,nics=4",
        "",
        "nodes=2,gpus=4,intra=ring,nics=2",
    };
    const auto finite_positive = [](const gpusim::LinkSpec &l) {
        return std::isfinite(l.bandwidthGBs) && l.bandwidthGBs > 0.0 &&
               std::isfinite(l.latencyUs) && l.latencyUs > 0.0;
    };
    Prng prng(0x7020);
    const int mutants = specFuzzMutants();
    for (int i = 0; i < mutants; ++i) {
        const std::string spec = mutateSpec(seeds, ',', prng);
        const auto topo_or = Topology::parse(spec);
        if (!topo_or.isOk()) {
            ASSERT_EQ(topo_or.status().code(),
                      StatusCode::InvalidArgument)
                << spec;
            continue;
        }
        ASSERT_GE(topo_or->totalGpus, 1) << spec;
        ASSERT_GE(topo_or->gpusPerNode, 1) << spec;
        ASSERT_GE(topo_or->nicsPerNode, 1) << spec;
        ASSERT_TRUE(finite_positive(topo_or->intraLink)) << spec;
        ASSERT_TRUE(finite_positive(topo_or->interLink)) << spec;
    }
}

// Mutants of the five collective names are either rejected or are
// exactly one of the names.
TEST(TopologyParse, CollectiveNameMutantsAreRejectedOrExact)
{
    const std::vector<std::string> seeds = {
        "gather", "ring", "tree", "reduce-scatter", "auto"};
    Prng prng(0xC011);
    const int mutants = specFuzzMutants();
    for (int i = 0; i < mutants; ++i) {
        const std::string name = mutateSpec(seeds, '-', prng);
        const auto policy_or = gpusim::parseCollectivePolicy(name);
        if (!policy_or.isOk()) {
            ASSERT_EQ(policy_or.status().code(),
                      StatusCode::InvalidArgument)
                << name;
            continue;
        }
        ASSERT_EQ(name, gpusim::collectivePolicyName(*policy_or));
    }
}

// --- Shape helpers ---------------------------------------------------

TEST(TopologyShape, FlatKeepsLegacyNodeNumbering)
{
    const Topology t = Topology::flat(12);
    EXPECT_FALSE(t.hierarchical);
    EXPECT_EQ(t.gpusPerNode, 8);
    EXPECT_EQ(t.numNodes(), 2);
    EXPECT_EQ(t.nodeOf(7), 0);
    EXPECT_EQ(t.nodeOf(8), 1);
    EXPECT_EQ(t.laneOf(11), 3);
    EXPECT_TRUE(t.sameNode(0, 7));
    EXPECT_FALSE(t.sameNode(7, 8));
    EXPECT_EQ(t.gpusOnNode(0), 8);
    EXPECT_EQ(t.gpusOnNode(1), 4); // ragged tail
}

TEST(TopologyShape, RingAndFcHopCounts)
{
    Topology t = Topology::dgx(1, 8);
    t.intra = IntraTopo::Ring;
    EXPECT_EQ(t.intraHops(0, 0), 0);
    EXPECT_EQ(t.intraHops(0, 1), 1);
    EXPECT_EQ(t.intraHops(0, 4), 4); // antipodal
    EXPECT_EQ(t.intraHops(0, 7), 1); // wraps
    EXPECT_EQ(t.intraHops(6, 1), 3);
    t.intra = IntraTopo::FullyConnected;
    EXPECT_EQ(t.intraHops(0, 4), 1);
    EXPECT_EQ(t.intraHops(0, 7), 1);
}

TEST(TopologyShape, LinkTimeKats)
{
    Topology t = Topology::dgx(2, 4);
    t.intra = IntraTopo::Ring;
    t.intraLink = {100.0, 2.0}; // 100 GB/s, 2 us
    t.interLink = {25.0, 10.0}; // 25 GB/s, 10 us
    t.nicsPerNode = 2;
    // Same node, 2 ring hops: 2 * 2us latency + 1e6 B / 100 GB/s.
    EXPECT_DOUBLE_EQ(t.linkNs(0, 2, 1000000), 2 * 2000.0 + 10000.0);
    // Cross node: one IB message striped over 2 NICs.
    EXPECT_DOUBLE_EQ(t.linkNs(1, 5, 1000000), 10000.0 + 20000.0);
    EXPECT_DOUBLE_EQ(t.linkNs(3, 3, 1 << 20), 0.0);
}

// --- Estimator KATs --------------------------------------------------

TEST(CollectiveEstimator, FlatGatherMatchesLegacyClusterFormula)
{
    // The legacy flat topology must reproduce Cluster::gatherNs
    // bit-exactly — this is what keeps every pre-existing timeline
    // byte-identical.
    const DeviceSpec dev = DeviceSpec::a100();
    for (int gpus : {1, 4, 8, 16, 64}) {
        const Cluster legacy(dev, gpus);
        const CollectiveTimeEstimator est(Topology::flat(gpus), dev);
        for (std::uint64_t bytes : {1024ull, 1ull << 20, 1ull << 26}) {
            EXPECT_EQ(est.gatherNs(gpus, bytes),
                      legacy.gatherNs(bytes))
                << gpus << " gpus, " << bytes << " B";
        }
    }
}

TEST(CollectiveEstimator, HierarchicalGatherChargesPerMessageLatency)
{
    // 32 nodes x 8: the host node's 8 devices each pay the host-link
    // latency, the 248 remote devices each pay an IB message — so
    // small-payload gathers are latency-bound and cost at least
    // remote_count * ib latency.
    const DeviceSpec dev = DeviceSpec::a100();
    const Topology topo = Topology::dgx(32, 8);
    const CollectiveTimeEstimator est(topo, dev);
    const double gather = est.gatherNs(256, 4096);
    EXPECT_GE(gather, 248 * topo.interLink.latencyUs * 1e3);
    // The tree pays only log2 rounds of latency and must be far
    // cheaper on the same small merge.
    EXPECT_LT(est.treeNs(256, 4096), gather / 4.0);
}

TEST(CollectiveEstimator, SingleGpuDegeneratesToHostHop)
{
    const DeviceSpec dev = DeviceSpec::a100();
    const CollectiveTimeEstimator est(Topology::dgx(1, 1), dev);
    const std::uint64_t bytes = 1 << 16;
    const double host_hop =
        dev.transferLatencyUs * 1e3 +
        static_cast<double>(bytes) /
            (dev.transferBandwidthGBs * 1e9) * 1e9;
    EXPECT_DOUBLE_EQ(est.ringNs(1, bytes), host_hop);
    EXPECT_DOUBLE_EQ(est.treeNs(1, bytes), host_hop);
}

TEST(CollectiveEstimator, RingKat)
{
    // 1 node x 4 over a 2us/300GBs NVLink: 2p-3 = 5 pipelined slots
    // plus the root's host hop.
    const DeviceSpec dev = DeviceSpec::a100();
    const Topology topo = Topology::dgx(1, 4);
    const CollectiveTimeEstimator est(topo, dev);
    const std::uint64_t bytes = 1 << 20;
    const double slot =
        topo.intraLink.latencyUs * 1e3 +
        static_cast<double>(bytes) /
            (topo.intraLink.bandwidthGBs * 1e9) * 1e9;
    const double host_hop =
        dev.transferLatencyUs * 1e3 +
        4.0 * static_cast<double>(bytes) /
            (dev.transferBandwidthGBs * 1e9) * 1e9;
    EXPECT_DOUBLE_EQ(est.ringNs(4, bytes), 5.0 * slot + host_hop);
}

TEST(CollectiveEstimator, DgxPresetMergeTimeKat)
{
    // Pins the calibrated link presets (kNvlink3NvSwitch /
    // kInfinibandHdrNic, topology.h) through the estimator on the
    // paper's testbed shape: 4 DGX nodes x 8 A100s. Regenerate these
    // constants only when deliberately re-calibrating the alpha/beta
    // link model — they are the contract that keeps every
    // hierarchical timeline stable.
    const DeviceSpec dev = DeviceSpec::a100();
    const Topology topo = Topology::dgx(4, 8);
    EXPECT_DOUBLE_EQ(topo.intraLink.bandwidthGBs, 300.0);
    EXPECT_DOUBLE_EQ(topo.intraLink.latencyUs, 2.0);
    EXPECT_DOUBLE_EQ(topo.interLink.bandwidthGBs, 25.0);
    EXPECT_DOUBLE_EQ(topo.interLink.latencyUs, 10.0);
    const CollectiveTimeEstimator est(topo, dev);

    const auto small = est.costs(topo.numGpus(), std::uint64_t{1}
                                                     << 10);
    EXPECT_DOUBLE_EQ(small.gatherNs, 240983.03999999998);
    EXPECT_DOUBLE_EQ(small.ringNs, 622553.17333333322);
    EXPECT_DOUBLE_EQ(small.treeNs, 37061.546666666669);
    EXPECT_DOUBLE_EQ(small.reduceScatterNs, 45240.746666666666);

    const auto large = est.costs(topo.numGpus(), std::uint64_t{1}
                                                     << 20);
    EXPECT_DOUBLE_EQ(large.gatherNs, 1246632.96);
    EXPECT_DOUBLE_EQ(large.ringNs, 3234449.4933333332);
    EXPECT_DOUBLE_EQ(large.treeNs, 1123023.7866666666);
    EXPECT_DOUBLE_EQ(large.reduceScatterNs, 1314524.5866666667);

    // The tree's log-depth latency advantage at small messages and
    // its bandwidth discipline at large ones are exactly what the
    // published NCCL ring-vs-tree crossover shows on multi-node
    // A100 fabrics: tree wins both here. Reduce-scatter's parallel
    // shard rounds only pay off once the node count grows (see
    // ReduceScatterBeatsTreeAt256Devices) — at 4 nodes its allgather
    // fan-in wave still costs more than the tree's two extra rounds.
    EXPECT_EQ(small.best(), CollectiveAlgo::Tree);
    EXPECT_EQ(large.best(), CollectiveAlgo::Tree);
}

TEST(CollectiveEstimator, PresetConstantsKat)
{
    // Locks the calibrated alpha/beta presets themselves (topology.h
    // documents the published sources): a recalibration must show up
    // here, in DgxPresetMergeTimeKat, and in the header comment
    // together.
    EXPECT_DOUBLE_EQ(gpusim::kNvlink3NvSwitch.bandwidthGBs, 300.0);
    EXPECT_DOUBLE_EQ(gpusim::kNvlink3NvSwitch.latencyUs, 2.0);
    EXPECT_DOUBLE_EQ(gpusim::kInfinibandHdrNic.bandwidthGBs, 25.0);
    EXPECT_DOUBLE_EQ(gpusim::kInfinibandHdrNic.latencyUs, 10.0);
    // The presets are what dgx()/parse() actually install.
    const Topology topo = Topology::dgx(2, 8);
    EXPECT_DOUBLE_EQ(topo.intraLink.bandwidthGBs,
                     gpusim::kNvlink3NvSwitch.bandwidthGBs);
    EXPECT_DOUBLE_EQ(topo.interLink.bandwidthGBs,
                     gpusim::kInfinibandHdrNic.bandwidthGBs);
}

TEST(CollectiveEstimator, CongestionMonotonicityKat)
{
    // The concurrent-transfer primitive: one synchronized wave of
    // transfers over a shared link pays the latency once and
    // serializes bandwidth proportionally to occupancy. More
    // concurrent transfers can never get cheaper; more lanes can
    // never get dearer; and a single transfer on a single lane is
    // exactly the plain link time.
    const gpusim::LinkSpec link{25.0, 10.0};
    const double bytes = 1 << 20;
    EXPECT_DOUBLE_EQ(
        gpusim::concurrentTransferNs(link, 1, 1, bytes),
        link.ns(1 << 20));
    double prev = 0.0;
    for (int transfers = 1; transfers <= 64; transfers *= 2) {
        const double t =
            gpusim::concurrentTransferNs(link, 4, transfers, bytes);
        EXPECT_GE(t, prev) << transfers << " transfers";
        prev = t;
    }
    prev = 1e18;
    for (int lanes = 1; lanes <= 16; lanes *= 2) {
        const double t =
            gpusim::concurrentTransferNs(link, lanes, 8, bytes);
        EXPECT_LE(t, prev) << lanes << " lanes";
        prev = t;
    }
    // reduceScatterNs inherits the monotonicity in payload size.
    const DeviceSpec dev = DeviceSpec::a100();
    const CollectiveTimeEstimator est(Topology::dgx(4, 8), dev);
    prev = 0.0;
    for (std::uint64_t b = 1024; b <= (1ull << 24); b *= 4) {
        const double t = est.reduceScatterNs(32, b);
        EXPECT_GT(t, prev) << b << " bytes";
        prev = t;
    }
}

TEST(CollectiveEstimator, ReduceScatterBeatsTreeAt256Devices)
{
    // The tentpole's win condition: at the paper-scale 32x8 cluster
    // the hierarchical reduce-scatter + allgather merge — whose
    // intra-node rounds run all nodes' NVLink rings concurrently and
    // whose inter-node exchange stripes every NIC — prices below the
    // serialized tree for small and large merges alike, and Auto
    // picks it.
    const DeviceSpec dev = DeviceSpec::a100();
    const Topology topo = Topology::dgx(32, 8);
    const CollectiveTimeEstimator est(topo, dev);
    for (std::uint64_t bytes : {4096ull, 81920ull, 1ull << 20}) {
        const auto c = est.costs(topo.numGpus(), bytes);
        EXPECT_LT(c.reduceScatterNs, c.treeNs) << bytes << " B";
        EXPECT_LT(c.reduceScatterNs, c.gatherNs) << bytes << " B";
        EXPECT_EQ(c.best(), CollectiveAlgo::ReduceScatter)
            << bytes << " B";
        EXPECT_EQ(est.pick(CollectivePolicy::Auto, topo.numGpus(),
                           bytes),
                  CollectiveAlgo::ReduceScatter)
            << bytes << " B";
    }
}

TEST(CollectiveEstimator, TuningIsDeterministic)
{
    const DeviceSpec dev = DeviceSpec::a100();
    const CollectiveTimeEstimator est(Topology::dgx(8, 8), dev);
    for (std::uint64_t bytes = 64; bytes <= (1ull << 28); bytes *= 8) {
        const CollectiveAlgo a =
            est.pick(CollectivePolicy::Auto, 64, bytes);
        const CollectiveAlgo b =
            est.pick(CollectivePolicy::Auto, 64, bytes);
        EXPECT_EQ(a, b);
        const auto costs = est.costs(64, bytes);
        EXPECT_LE(costs.ns(a),
                  std::min({costs.gatherNs, costs.ringNs,
                            costs.treeNs,
                            costs.reduceScatterNs}));
    }
    // Forced policies map straight through.
    EXPECT_EQ(est.pick(CollectivePolicy::Ring, 64, 4096),
              CollectiveAlgo::Ring);
    EXPECT_EQ(est.pick(CollectivePolicy::Tree, 64, 4096),
              CollectiveAlgo::Tree);
    EXPECT_EQ(est.pick(CollectivePolicy::Gather, 64, 4096),
              CollectiveAlgo::Gather);
    EXPECT_EQ(est.pick(CollectivePolicy::ReduceScatter, 64, 4096),
              CollectiveAlgo::ReduceScatter);
}

// --- Schedules -------------------------------------------------------

/**
 * Replay @p sched over per-member key sets; returns the root set.
 * Sharded steps (reduce-scatter rounds) move only the keys whose
 * k % shardCount matches, exactly like the engine; whole-payload
 * steps in an unsharded schedule must never fire from a drained
 * member (a reduce-scatter allgather step legitimately may — an
 * empty shard still ships for the deterministic transfer stream).
 */
std::set<int>
replaySchedule(const CollectiveSchedule &sched,
               const std::vector<int> &members)
{
    std::vector<std::set<int>> own(
        1 + *std::max_element(members.begin(), members.end()));
    for (int m : members)
        own[static_cast<std::size_t>(m)] = {m};
    for (const auto &step : sched.steps) {
        auto &src = own[static_cast<std::size_t>(step.src)];
        auto &dst = own[static_cast<std::size_t>(step.dst)];
        if (step.shard >= 0) {
            std::set<int> stay;
            for (int k : src) {
                if (k % sched.shardCount == step.shard) {
                    EXPECT_TRUE(dst.insert(k).second)
                        << "key " << k << " delivered twice";
                } else {
                    stay.insert(k);
                }
            }
            src = stay;
            continue;
        }
        if (sched.shardCount == 0) {
            EXPECT_FALSE(src.empty())
                << "step " << step.src << "->" << step.dst
                << " sends from a drained member";
        }
        for (int k : src) {
            EXPECT_TRUE(dst.insert(k).second)
                << "key " << k << " delivered twice";
        }
        src.clear();
    }
    return own[static_cast<std::size_t>(sched.root)];
}

TEST(CollectiveSchedule, RingChainsIntoLowestMember)
{
    const Topology topo = Topology::dgx(2, 4);
    const std::vector<int> members = {0, 1, 2, 5, 6};
    const auto sched = gpusim::buildCollectiveSchedule(
        CollectiveAlgo::Ring, topo, members);
    EXPECT_EQ(sched.root, 0);
    ASSERT_EQ(sched.steps.size(), 4u);
    EXPECT_EQ(sched.steps[0].src, 6);
    EXPECT_EQ(sched.steps[0].dst, 5);
    EXPECT_EQ(sched.steps[3].src, 1);
    EXPECT_EQ(sched.steps[3].dst, 0);
    EXPECT_EQ(replaySchedule(sched, members),
              std::set<int>(members.begin(), members.end()));
}

TEST(CollectiveSchedule, TreeReducesNodesThenLeaders)
{
    const Topology topo = Topology::dgx(2, 4);
    const std::vector<int> members = {0, 1, 2, 3, 4, 5, 6, 7};
    const auto sched = gpusim::buildCollectiveSchedule(
        CollectiveAlgo::Tree, topo, members);
    EXPECT_EQ(sched.root, 0);
    // 3 intra steps per node + 1 leader step.
    ASSERT_EQ(sched.steps.size(), 7u);
    // Every intra step stays on its node; exactly one crosses.
    int cross = 0;
    for (const auto &step : sched.steps)
        cross += topo.sameNode(step.src, step.dst) ? 0 : 1;
    EXPECT_EQ(cross, 1);
    EXPECT_EQ(sched.steps.back().src, 4); // leader of node 1
    EXPECT_EQ(sched.steps.back().dst, 0);
    EXPECT_EQ(replaySchedule(sched, members),
              std::set<int>(members.begin(), members.end()));
}

TEST(CollectiveSchedule, ReduceScatterShardsThenGathers)
{
    // p members: p-1 rounds of p concurrent shard rotations, then
    // p-1 allgather hops into the root. After the scatter rounds
    // member index s must hold exactly shard s — the replay checks
    // delivery; here we pin the schedule's shape.
    const Topology topo = Topology::dgx(2, 4);
    const std::vector<int> members = {0, 2, 3, 5, 6};
    const int p = static_cast<int>(members.size());
    const auto sched = gpusim::buildCollectiveSchedule(
        CollectiveAlgo::ReduceScatter, topo, members);
    EXPECT_EQ(sched.root, 0);
    EXPECT_EQ(sched.shardCount, p);
    ASSERT_EQ(sched.steps.size(),
              static_cast<std::size_t>(p * (p - 1) + (p - 1)));
    // Scatter rounds ring-forward with a shard tag; allgather hops
    // carry the whole payload (shard -1) into the root.
    for (int i = 0; i < p * (p - 1); ++i) {
        EXPECT_GE(sched.steps[static_cast<std::size_t>(i)].shard, 0);
        EXPECT_LT(sched.steps[static_cast<std::size_t>(i)].shard, p);
    }
    for (int i = p * (p - 1); i < p * (p - 1) + (p - 1); ++i) {
        EXPECT_EQ(sched.steps[static_cast<std::size_t>(i)].shard, -1);
        EXPECT_EQ(sched.steps[static_cast<std::size_t>(i)].dst, 0);
    }
    EXPECT_EQ(replaySchedule(sched, members),
              std::set<int>(members.begin(), members.end()));
}

TEST(CollectiveSchedule, EveryShapeDeliversEachKeyOnce)
{
    // Ragged membership (mid-merge device loss shapes) on ragged
    // topologies: the replay asserts no key is dropped or doubled.
    Topology ragged = Topology::dgx(3, 3);
    ragged.totalGpus = 7; // last node holds one device
    const std::vector<std::vector<int>> member_sets = {
        {0}, {2, 6}, {0, 1, 2, 3, 4, 5, 6}, {1, 3, 4, 6}, {5, 6},
    };
    for (const auto &members : member_sets) {
        for (CollectiveAlgo algo :
             {CollectiveAlgo::Ring, CollectiveAlgo::Tree,
              CollectiveAlgo::ReduceScatter}) {
            const auto sched = gpusim::buildCollectiveSchedule(
                algo, ragged, members);
            EXPECT_EQ(sched.root, members.front());
            EXPECT_EQ(replaySchedule(sched, members),
                      std::set<int>(members.begin(), members.end()))
                << gpusim::collectiveAlgoName(algo) << " over "
                << members.size() << " members";
        }
    }
}

// --- Functional differential -----------------------------------------

struct TopoCase
{
    const char *name;
    Topology topo;
};

std::vector<TopoCase>
differentialTopologies()
{
    Topology ring24 = Topology::dgx(2, 4);
    ring24.intra = IntraTopo::Ring;
    Topology ragged = Topology::dgx(3, 3);
    ragged.totalGpus = 7;
    return {
        {"flat8", Topology::flat(8)},
        {"dgx2x4", Topology::dgx(2, 4)},
        {"dgx2x4ring", ring24},
        {"dgx4x2", Topology::dgx(4, 2)},
        {"ragged7", ragged},
    };
}

template <typename Curve>
void
runDifferential(std::uint64_t seed)
{
    Prng prng(seed);
    const std::size_t n = std::size_t{1} << 12;
    const auto points = generatePoints<Curve>(n, prng);
    const auto scalars = generateScalars<Curve>(n, prng);
    const auto expect = msmSerialPippenger<Curve>(points, scalars, 8);

    for (const TopoCase &tc : differentialTopologies()) {
        const Cluster cluster(DeviceSpec::a100(), tc.topo);
        auto base_options = topoTestOptions();
        const auto base_or = tryComputeDistMsm<Curve>(
            points, scalars, cluster, base_options);
        ASSERT_TRUE(base_or.isOk())
            << tc.name << ": " << base_or.status().toString();
        EXPECT_EQ(base_or->plan.collective, CollectiveAlgo::Gather);
        EXPECT_TRUE(base_or->value == expect) << tc.name;

        for (CollectivePolicy policy :
             {CollectivePolicy::Ring, CollectivePolicy::Tree,
              CollectivePolicy::ReduceScatter}) {
            for (int host_threads : {1, 3}) {
                auto options = topoTestOptions();
                options.collective = policy;
                options.hostThreads = host_threads;
                const auto got_or = tryComputeDistMsm<Curve>(
                    points, scalars, cluster, options);
                ASSERT_TRUE(got_or.isOk())
                    << tc.name << "/"
                    << gpusim::collectivePolicyName(policy) << ": "
                    << got_or.status().toString();
                EXPECT_TRUE(
                    bitEqual(got_or->value, base_or->value))
                    << tc.name << "/"
                    << gpusim::collectivePolicyName(policy)
                    << " threads=" << host_threads;
                EXPECT_EQ(got_or->stats, base_or->stats)
                    << tc.name << "/"
                    << gpusim::collectivePolicyName(policy);
                EXPECT_EQ(got_or->hostOps, base_or->hostOps)
                    << tc.name << "/"
                    << gpusim::collectivePolicyName(policy);
            }
        }
    }
}

TEST(CollectiveDifferential, Bn254AllTopologiesAllAlgos)
{
    runDifferential<Bn254>(0x70B0);
}

TEST(CollectiveDifferential, Bls377AllTopologiesAllAlgos)
{
    runDifferential<Bls377>(0x70B1);
}

TEST(CollectiveDifferential, SignedGlvRingMatchesGather)
{
    // Feature-stacked windows (signed digits + GLV) over a ring
    // fabric: routing must stay transparent to the digit encoding.
    Prng prng(0x70B2);
    const std::size_t n = std::size_t{1} << 12;
    const auto points = generatePoints<Bn254>(n, prng);
    const auto scalars = generateScalars<Bn254>(n, prng);
    Topology topo = Topology::dgx(2, 4);
    topo.intra = IntraTopo::Ring;
    const Cluster cluster(DeviceSpec::a100(), topo);
    auto options = topoTestOptions();
    options.signedDigits = true;
    options.glv = true;
    const auto base_or = tryComputeDistMsm<Bn254>(points, scalars,
                                                  cluster, options);
    ASSERT_TRUE(base_or.isOk());
    options.collective = CollectivePolicy::Ring;
    const auto ring_or = tryComputeDistMsm<Bn254>(points, scalars,
                                                  cluster, options);
    ASSERT_TRUE(ring_or.isOk());
    EXPECT_TRUE(bitEqual(ring_or->value, base_or->value));
    EXPECT_EQ(ring_or->stats, base_or->stats);
    EXPECT_TRUE(base_or->value ==
                msmSerialPippenger<Bn254>(points, scalars, 8));
}

TEST(CollectiveDifferential, PrecomputeCombinedPathMatchesGather)
{
    // The fixed-base combined path merges bucket slices instead of
    // window points; the collective must route those slices to the
    // same bit pattern too.
    Prng prng(0x70B3);
    const std::size_t n = std::size_t{1} << 10;
    const auto points = generatePoints<Bn254>(n, prng);
    const auto scalars = generateScalars<Bn254>(n, prng);
    const Cluster cluster(DeviceSpec::a100(), Topology::dgx(2, 4));
    auto options = topoTestOptions();
    options.precompute = true;
    const auto base_or = tryComputeDistMsm<Bn254>(points, scalars,
                                                  cluster, options);
    ASSERT_TRUE(base_or.isOk());
    ASSERT_TRUE(base_or->plan.precompute)
        << "planner declined the table; the combined path is not "
           "exercised";
    for (CollectivePolicy policy :
         {CollectivePolicy::Ring, CollectivePolicy::Tree,
          CollectivePolicy::ReduceScatter}) {
        auto opt = options;
        opt.collective = policy;
        const auto got_or = tryComputeDistMsm<Bn254>(points, scalars,
                                                     cluster, opt);
        ASSERT_TRUE(got_or.isOk())
            << gpusim::collectivePolicyName(policy);
        EXPECT_TRUE(bitEqual(got_or->value, base_or->value))
            << gpusim::collectivePolicyName(policy);
        EXPECT_EQ(got_or->stats, base_or->stats);
    }
}

// --- The tuner vs the measured best ----------------------------------

TEST(CollectiveTuner, PickMatchesMeasuredBestOnContrastingTopologies)
{
    // Two topologies with opposite winners: the legacy flat node
    // (one latency term — gather is unbeatable) and a 32x8
    // hierarchical cluster (256 per-message latencies — the tree's
    // log2 rounds win). Auto must pick whichever forced strategy
    // measures fastest end-to-end on each.
    const auto curve = gpusim::CurveProfile::bn254();
    struct Case
    {
        const char *name;
        Topology topo;
    };
    const Case cases[] = {
        {"flat8", Topology::flat(8)},
        {"dgx32x8", Topology::dgx(32, 8)},
    };
    for (const Case &c : cases) {
        const Cluster cluster(DeviceSpec::a100(), c.topo);
        MsmOptions options;
        const std::uint64_t n = 1ull << 20;

        double best_ns = 0.0;
        CollectiveAlgo best = CollectiveAlgo::Gather;
        bool first = true;
        for (CollectivePolicy policy :
             {CollectivePolicy::Gather, CollectivePolicy::Ring,
              CollectivePolicy::Tree,
              CollectivePolicy::ReduceScatter}) {
            auto forced = options;
            forced.collective = policy;
            const MsmTimeline t =
                estimateDistMsm(curve, n, cluster, forced);
            if (first || t.totalNs() < best_ns) {
                best_ns = t.totalNs();
                best = planMsm(curve, n, cluster, forced).collective;
                first = false;
            }
        }

        auto tuned = options;
        tuned.collective = CollectivePolicy::Auto;
        const MsmPlan plan = planMsm(curve, n, cluster, tuned);
        EXPECT_EQ(plan.collective, best) << c.name;
        const MsmTimeline t = estimateDistMsm(curve, n, cluster,
                                              tuned);
        EXPECT_EQ(t.collective, plan.collective) << c.name;
        EXPECT_DOUBLE_EQ(t.totalNs(), best_ns) << c.name;
        // The per-strategy predictions ride along in the timeline.
        EXPECT_LE(t.mergeCosts.ns(t.collective),
                  std::min({t.mergeCosts.gatherNs,
                            t.mergeCosts.ringNs,
                            t.mergeCosts.treeNs,
                            t.mergeCosts.reduceScatterNs}))
            << c.name;
    }
}

TEST(CollectiveTuner, TreeBeatsGatherAt256Devices)
{
    // The scaling headline: at 256 simulated devices the tuner's
    // merge must be measurably below the all-to-host gather.
    const auto curve = gpusim::CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), Topology::dgx(32, 8));
    MsmOptions gather;
    gather.collective = CollectivePolicy::Gather;
    MsmOptions tuned;
    tuned.collective = CollectivePolicy::Auto;
    const MsmTimeline tg =
        estimateDistMsm(curve, 1ull << 24, cluster, gather);
    const MsmTimeline tt =
        estimateDistMsm(curve, 1ull << 24, cluster, tuned);
    EXPECT_NE(tt.collective, CollectiveAlgo::Gather);
    EXPECT_LT(tt.transferNs, tg.transferNs * 0.5)
        << "tuned merge is not measurably below gather";
    EXPECT_LE(tt.totalNs(), tg.totalNs());
}

// --- Topology-aware resharding ---------------------------------------

TEST(TopologyReshard, PrefersSameNodeSurvivors)
{
    Prng prng(0x70B4);
    const std::size_t n = std::size_t{1} << 12;
    const auto points = generatePoints<Bn254>(n, prng);
    const auto scalars = generateScalars<Bn254>(n, prng);
    const Cluster cluster(DeviceSpec::a100(), Topology::dgx(2, 2));

    auto options = topoTestOptions(); // s=8: 32 windows over 4 gpus
    options.collective = CollectivePolicy::Ring;
    const auto clean_or =
        tryComputeDistMsm<Bn254>(points, scalars, cluster, options);
    ASSERT_TRUE(clean_or.isOk());

    // Kill device 3 (node 1): its 8 windows round-robin the
    // preference list [2 (same node), 0, 1] — ordinals 0,3,6 land
    // intra-node, the other five cross.
    auto faulty = options;
    faulty.faults.events.push_back(
        {gpusim::FaultKind::KillDevice, 3, 0, 0, 0.0});
    const auto got_or =
        tryComputeDistMsm<Bn254>(points, scalars, cluster, faulty);
    ASSERT_TRUE(got_or.isOk()) << got_or.status().toString();
    EXPECT_TRUE(bitEqual(got_or->value, clean_or->value));
    EXPECT_EQ(got_or->stats, clean_or->stats);
    EXPECT_EQ(got_or->fault.windowsResharded, 8u);
    EXPECT_EQ(got_or->fault.reshardsIntraNode, 3u);
    EXPECT_EQ(got_or->fault.reshardsCrossNode, 5u);
}

TEST(TopologyReshard, SingleNodeReshardsStayIntraNode)
{
    Prng prng(0x70B5);
    const std::size_t n = std::size_t{1} << 12;
    const auto points = generatePoints<Bn254>(n, prng);
    const auto scalars = generateScalars<Bn254>(n, prng);
    const Cluster cluster(DeviceSpec::a100(), 4); // legacy flat

    auto options = topoTestOptions();
    options.faults.events.push_back(
        {gpusim::FaultKind::KillDevice, 1, 0, 0, 0.0});
    const auto got_or =
        tryComputeDistMsm<Bn254>(points, scalars, cluster, options);
    ASSERT_TRUE(got_or.isOk());
    EXPECT_EQ(got_or->fault.reshardsCrossNode, 0u);
    EXPECT_EQ(got_or->fault.reshardsIntraNode,
              got_or->fault.windowsResharded);
}

} // namespace
} // namespace distmsm::msm
