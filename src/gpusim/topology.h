/**
 * @file
 * Hierarchical interconnect topology of the simulated cluster.
 *
 * The paper's testbed chains DGX nodes (8x A100 each) over
 * InfiniBand (Section 5.1); inside a node the GPUs share an NVLink
 * fabric. A Topology generalizes the flat N-device model to
 * nodes x devices with per-link-class bandwidth/latency:
 *
 *   intra-node   NVLink, either a ring (each GPU links its two ring
 *                neighbours; non-neighbour traffic is forwarded) or
 *                fully-connected (NVSwitch: every pair one hop)
 *   inter-node   InfiniBand through per-node NICs; nicsPerNode NICs
 *                stripe a node's inter-node traffic
 *
 * Devices are numbered node-major: device d lives on node
 * d / gpusPerNode at lane d % gpusPerNode. The host hangs off node 0
 * via the DeviceSpec's host link (transferBandwidthGBs /
 * transferLatencyUs), which is not part of the Topology.
 *
 * Topology::flat(n) reproduces the legacy flat model (8 GPUs per
 * node, legacy gather pricing in collectives.h) so existing clusters
 * are byte-identical; hierarchical topologies (dgx(), parse()) opt
 * into the refined per-message link pricing.
 */

#ifndef DISTMSM_GPUSIM_TOPOLOGY_H
#define DISTMSM_GPUSIM_TOPOLOGY_H

#include <cstdint>
#include <string>

#include "src/support/status.h"

namespace distmsm::gpusim {

/** One link class: bandwidth and per-message latency. */
struct LinkSpec
{
    double bandwidthGBs = 0.0;
    double latencyUs = 0.0;

    /** Time (ns) for one @p bytes message over one such link. */
    double
    ns(std::uint64_t bytes) const
    {
        return latencyUs * 1e3 +
               static_cast<double>(bytes) /
                   (bandwidthGBs * 1e9) * 1e9;
    }
};

/** Intra-node NVLink wiring. */
enum class IntraTopo {
    Ring,           ///< each GPU links its two ring neighbours
    FullyConnected, ///< NVSwitch: every pair is one hop
};

/**
 * Link-class presets: the alpha/beta (latency/bandwidth) constants
 * the CollectiveTimeEstimator prices merges with, calibrated against
 * published numbers rather than invented per call site.
 *
 * kNvlink3NvSwitch — A100 NVSwitch fabric. beta: 300 GB/s per GPU
 * per direction (12 NVLink3 links x 25 GB/s/direction, NVIDIA A100
 * datasheet — the headline "600 GB/s" is the bidirectional sum; a
 * collective stream moves payload one direction over a link, and
 * published nccl-tests bus bandwidth on 8x A100 NVSwitch saturates
 * at 230-280 GB/s per GPU for large all_gather/reduce_scatter,
 * i.e. bounded by the 300 GB/s unidirectional injection rate, never
 * by 600). alpha: 2 us, NCCL's measured intra-node base latency for
 * a small message through the proxy/NVSwitch path (nccl-tests busbw
 * tables report 1-3 us alpha for 8xA100 NVLink rings).
 *
 * kInfinibandHdrNic — one HDR InfiniBand NIC. beta: 200 Gb/s = 25
 * GB/s per NIC (HDR data rate; DGX-A100 ships 8 such NICs;
 * nccl-tests cross-node busbw reaches 23-24 GB/s per NIC, so the
 * nominal rate is the calibrated ceiling). alpha: 10 us, NCCL's
 * inter-node base latency through the IB verbs transport
 * (nccl-tests reports 8-15 us small-message latency for cross-node
 * rings/trees; ring alpha dominates at small sizes, matching the
 * tuner's preference for tree on deep multi-node merges).
 *
 * Each preset is locked by a merge-time KAT in test_topology.cc
 * (PresetConstantsKat + DgxPresetMergeTimeKat): recalibrating a
 * constant moves those pinned values, deliberately.
 */
inline constexpr LinkSpec kNvlink3NvSwitch{300.0, 2.0};
inline constexpr LinkSpec kInfinibandHdrNic{25.0, 10.0};

/** Hierarchical cluster shape: nodes x devices plus link classes. */
struct Topology
{
    /** Total simulated devices (may leave the last node ragged,
     *  matching the legacy flat model's ceil(n/8) node count). */
    int totalGpus = 8;
    int gpusPerNode = 8;
    IntraTopo intra = IntraTopo::FullyConnected;
    /** NVLink per-pair link (defaults to the calibrated preset). */
    LinkSpec intraLink = kNvlink3NvSwitch;
    /** InfiniBand per-NIC link (defaults to the calibrated preset). */
    LinkSpec interLink = kInfinibandHdrNic;
    /** NICs striping each node's inter-node traffic. */
    int nicsPerNode = 1;
    /**
     * True for topologies built by dgx()/parse(): collective cost
     * models may price gathers with per-message link latency. The
     * flat() legacy topology keeps the original single-latency
     * gather formula so pre-existing timelines stay byte-identical.
     */
    bool hierarchical = false;

    int numGpus() const { return totalGpus; }
    int
    numNodes() const
    {
        return (totalGpus + gpusPerNode - 1) / gpusPerNode;
    }
    int nodeOf(int device) const { return device / gpusPerNode; }
    int laneOf(int device) const { return device % gpusPerNode; }
    bool
    sameNode(int a, int b) const
    {
        return nodeOf(a) == nodeOf(b);
    }
    /** Devices actually present on @p node (last node may be ragged). */
    int
    gpusOnNode(int node) const
    {
        const int lo = node * gpusPerNode;
        const int hi = lo + gpusPerNode;
        return (hi <= totalGpus ? hi : totalGpus) - lo;
    }

    /**
     * Intra-node hop count between two lanes: ring distance on a
     * ring fabric (traffic forwards through intermediates), 1 on a
     * fully-connected fabric.
     */
    int intraHops(int lane_a, int lane_b) const;

    /**
     * Time (ns) of one @p bytes message device @p src -> @p dst.
     * Same node: intraHops ring/fc hops over the NVLink link (each
     * hop pays the link latency; the payload streams, so bandwidth
     * is paid once). Cross-node: one NVLink hop to the NIC complex
     * is folded into the InfiniBand link time, striped over the
     * node's NICs.
     */
    double linkNs(int src, int dst, std::uint64_t bytes) const;

    /** The legacy flat model: @p num_gpus over ceil(n/8) DGX nodes,
     *  legacy gather pricing. */
    static Topology flat(int num_gpus);

    /** @p nodes DGX nodes of @p gpus_per_node, hierarchical pricing. */
    static Topology dgx(int nodes, int gpus_per_node);

    /**
     * Parse a topology spec. Comma-joined key=value clauses:
     *
     *   nodes=N        node count (default 1)
     *   gpus=G         GPUs per node (default 8)
     *   intra=ring|fc  intra-node NVLink wiring (default fc)
     *   nvlink=GBs     intra-node link bandwidth (default 300)
     *   nvlink_us=US   intra-node link latency (default 2)
     *   ib=GBs         inter-node per-NIC bandwidth (default 25)
     *   ib_us=US       inter-node link latency (default 10)
     *   nics=K         NICs per node (default 1)
     *
     * N, G and K are plain decimal integers >= 1 whose product N x G
     * fits an int; the link numbers are finite and positive.
     * Example: "nodes=32,gpus=8,intra=ring,nics=4".
     */
    static support::StatusOr<Topology> parse(const std::string &spec);

    /** Human-readable one-line summary ("2x4 (...)"); a ragged last
     *  node prefixes the real device count ("4 GPUs of 1x8 (...)"). */
    std::string describe() const;
};

} // namespace distmsm::gpusim

#endif // DISTMSM_GPUSIM_TOPOLOGY_H
