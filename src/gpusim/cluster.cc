#include "src/gpusim/cluster.h"

#include <string>

#include "src/gpusim/collectives.h"
#include "src/support/check.h"
#include "src/support/trace.h"

namespace distmsm::gpusim {

Cluster::Cluster(DeviceSpec device, int num_gpus, HostSpec host,
                 CostParams params)
    : device_(std::move(device)), num_gpus_(num_gpus),
      topology_(Topology::flat(num_gpus)), host_(std::move(host)),
      model_(device_, params)
{
    DISTMSM_REQUIRE(num_gpus >= 1, "cluster needs at least one GPU");
}

Cluster::Cluster(DeviceSpec device, Topology topology, HostSpec host,
                 CostParams params)
    : device_(std::move(device)), num_gpus_(topology.numGpus()),
      topology_(topology), host_(std::move(host)),
      model_(device_, params)
{
    DISTMSM_REQUIRE(num_gpus_ >= 1,
                    "cluster needs at least one GPU");
    DISTMSM_REQUIRE(topology_.gpusPerNode >= 1,
                    "topology needs at least one GPU per node");
}

int
Cluster::numNodes() const
{
    return topology_.numNodes();
}

double
Cluster::gatherNs(std::uint64_t bytes_per_gpu) const
{
    // Single source of truth for gather pricing: the collective
    // estimator's gather branch (legacy flat topologies reproduce
    // the original formula bit-exactly; see collectives.h).
    return CollectiveTimeEstimator(topology_, device_)
        .gatherNs(num_gpus_, bytes_per_gpu);
}

void
Cluster::labelTraceLanes(support::TraceRecorder &trace) const
{
    namespace lane = support::tracelane;
    trace.labelProcess(lane::kHostPid, "host cpu");
    trace.labelThread(lane::kHostPid, lane::kComputeTid, "reduce");
    for (int d = 0; d < num_gpus_; ++d) {
        trace.labelProcess(lane::devicePid(d),
                           "gpu" + std::to_string(d));
        trace.labelThread(lane::devicePid(d), lane::kComputeTid,
                          "compute");
        trace.labelThread(lane::devicePid(d), lane::kTransferTid,
                          "transfer");
    }
}

} // namespace distmsm::gpusim
