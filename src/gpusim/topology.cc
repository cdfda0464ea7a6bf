#include "src/gpusim/topology.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "src/support/parse.h"

namespace distmsm::gpusim {

int
Topology::intraHops(int lane_a, int lane_b) const
{
    if (lane_a == lane_b)
        return 0;
    if (intra == IntraTopo::FullyConnected)
        return 1;
    const int g = gpusPerNode;
    const int fwd = ((lane_b - lane_a) % g + g) % g;
    return std::min(fwd, g - fwd);
}

double
Topology::linkNs(int src, int dst, std::uint64_t bytes) const
{
    if (src == dst)
        return 0.0;
    if (sameNode(src, dst)) {
        const int hops = intraHops(laneOf(src), laneOf(dst));
        return hops * intraLink.latencyUs * 1e3 +
               static_cast<double>(bytes) /
                   (intraLink.bandwidthGBs * 1e9) * 1e9;
    }
    const double nic_gbs =
        interLink.bandwidthGBs * std::max(1, nicsPerNode);
    return interLink.latencyUs * 1e3 +
           static_cast<double>(bytes) / (nic_gbs * 1e9) * 1e9;
}

Topology
Topology::flat(int num_gpus)
{
    Topology t;
    t.totalGpus = num_gpus;
    t.gpusPerNode = 8;
    t.hierarchical = false;
    return t;
}

Topology
Topology::dgx(int nodes, int gpus_per_node)
{
    Topology t;
    t.totalGpus = nodes * gpus_per_node;
    t.gpusPerNode = gpus_per_node;
    t.hierarchical = true;
    return t;
}

support::StatusOr<Topology>
Topology::parse(const std::string &spec)
{
    using support::Status;
    using support::StatusCode;
    Topology t;
    t.hierarchical = true;
    int nodes = 1;
    int gpus = 8;
    std::stringstream ss(spec);
    std::string clause;
    while (std::getline(ss, clause, ',')) {
        if (clause.empty())
            continue;
        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos)
            return Status(StatusCode::InvalidArgument,
                          "topology clause '" + clause +
                              "' is not key=value");
        const std::string key = clause.substr(0, eq);
        const std::string val = clause.substr(eq + 1);
        // A rejected value fails the whole parse, so writing `out`
        // before the range check is harmless.
        const auto positive_int = [&](int &out) {
            return support::parseDecimal(val, out) && out >= 1;
        };
        const auto positive = [&](double &out) {
            return support::parseFinite(val, out) && out > 0.0;
        };
        bool ok = true;
        if (key == "nodes") {
            ok = positive_int(nodes);
        } else if (key == "gpus") {
            ok = positive_int(gpus);
        } else if (key == "nics") {
            ok = positive_int(t.nicsPerNode);
        } else if (key == "intra") {
            if (val == "ring")
                t.intra = IntraTopo::Ring;
            else if (val == "fc")
                t.intra = IntraTopo::FullyConnected;
            else
                ok = false;
        } else if (key == "nvlink") {
            ok = positive(t.intraLink.bandwidthGBs);
        } else if (key == "nvlink_us") {
            ok = positive(t.intraLink.latencyUs);
        } else if (key == "ib") {
            ok = positive(t.interLink.bandwidthGBs);
        } else if (key == "ib_us") {
            ok = positive(t.interLink.latencyUs);
        } else {
            return Status(StatusCode::InvalidArgument,
                          "unknown topology key '" + key + "'");
        }
        if (!ok)
            return Status(StatusCode::InvalidArgument,
                          "bad topology value '" + val +
                              "' for key '" + key + "'");
    }
    if (static_cast<long long>(nodes) * gpus >
        std::numeric_limits<int>::max())
        return Status(StatusCode::InvalidArgument,
                      "topology of " + std::to_string(nodes) + "x" +
                          std::to_string(gpus) +
                          " GPUs overflows the device count");
    t.gpusPerNode = gpus;
    t.totalGpus = nodes * gpus;
    return t;
}

std::string
Topology::describe() const
{
    std::ostringstream os;
    // A flat or shrunken fleet leaves its last node ragged: name the
    // real device count before the node shape it fills.
    if (totalGpus != numNodes() * gpusPerNode)
        os << totalGpus << " GPUs of ";
    os << numNodes() << "x" << gpusPerNode << " ("
       << (intra == IntraTopo::Ring ? "ring" : "fc")
       << " nvlink " << intraLink.bandwidthGBs << " GB/s, ib "
       << interLink.bandwidthGBs << " GB/s x" << nicsPerNode
       << " nic" << (nicsPerNode == 1 ? "" : "s") << ", "
       << (hierarchical ? "hierarchical" : "legacy flat") << ")";
    return os.str();
}

} // namespace distmsm::gpusim
