/**
 * @file
 * Multi-GPU cluster description.
 *
 * The paper's testbed is an NVIDIA DGX (8x A100 + dual AMD Rome
 * CPUs); configurations beyond 8 GPUs chain several DGX systems
 * (Section 5.1). A Cluster bundles the device specification, the GPU
 * count and the host model, and provides the simple cross-device
 * timing helpers the MSM planner composes.
 */

#ifndef DISTMSM_GPUSIM_CLUSTER_H
#define DISTMSM_GPUSIM_CLUSTER_H

#include <string>

#include "src/gpusim/cost_model.h"
#include "src/gpusim/device.h"
#include "src/gpusim/topology.h"

namespace distmsm::support {
class TraceRecorder;
}

namespace distmsm::gpusim {

/** A homogeneous multi-GPU system with one host. */
class Cluster
{
  public:
    /** Legacy flat cluster: Topology::flat(num_gpus). */
    Cluster(DeviceSpec device, int num_gpus,
            HostSpec host = HostSpec{},
            CostParams params = CostParams{});

    /** Hierarchical cluster over an explicit topology. */
    Cluster(DeviceSpec device, Topology topology,
            HostSpec host = HostSpec{},
            CostParams params = CostParams{});

    int numGpus() const { return num_gpus_; }
    const DeviceSpec &device() const { return device_; }
    const HostSpec &host() const { return host_; }
    const CostModel &model() const { return model_; }
    const Topology &topology() const { return topology_; }

    /** GPUs per node (transfers within a node use NVLink). */
    int gpusPerNode() const { return topology_.gpusPerNode; }

    /**
     * Time (ns) to gather @p bytes_per_gpu from every GPU to the
     * host. Two-level topology: GPUs of the host's node share its
     * NVLink/PCIe complex; remote DGX nodes forward their aggregated
     * share over the inter-node fabric, all remote nodes contending
     * for the host's NIC (Section 5.1's multi-DGX configurations).
     */
    double gatherNs(std::uint64_t bytes_per_gpu) const;

    /** Number of DGX nodes covering the GPUs. */
    int numNodes() const;

    /**
     * Name this cluster's trace lanes: the host-CPU process plus one
     * process per GPU with compute and transfer tracks
     * (support::tracelane layout). Idempotent; instrumentation sites
     * call it before emitting device spans.
     */
    void labelTraceLanes(support::TraceRecorder &trace) const;

  private:
    DeviceSpec device_;
    int num_gpus_;
    Topology topology_;
    HostSpec host_;
    CostModel model_;
};

} // namespace distmsm::gpusim

#endif // DISTMSM_GPUSIM_CLUSTER_H
