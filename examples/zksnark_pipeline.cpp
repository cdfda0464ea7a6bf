/**
 * @file
 * End-to-end zkSNARK pipeline: build an R1CS circuit, run the
 * trusted setup, generate a Groth16-style proof (NTT + MSMs) and
 * verify it — the workload whose MSM stage DistMSM accelerates
 * (paper Table 4).
 */

#include <cstdio>

#include "src/ec/curves.h"
#include "src/zksnark/groth16_g2.h"
#include "src/zksnark/proof_io.h"
#include "src/zksnark/workloads.h"

int
main()
{
    using namespace distmsm;
    namespace zk = zksnark;
    using F = Bn254Fr;

    // 1. A synthetic multiplication-chain circuit (a stand-in for
    //    the paper's Zcash/Otti/Zen instances, same code path).
    Prng prng(2024);
    const std::size_t constraints = 300;
    auto circuit = zk::buildMulChainCircuit<F>(constraints, 4, prng);
    std::printf("circuit: %zu constraints, %zu wires, %zu public\n",
                circuit.r1cs.numConstraints(),
                circuit.r1cs.numWires(), circuit.r1cs.numPublic());

    // 2. Trusted setup (the trapdoor doubles as the test oracle).
    const auto trapdoor = zk::Trapdoor<F>::random(prng);
    const auto keys = zk::setup<Bn254>(circuit.r1cs, trapdoor);
    std::printf("setup: %zu A-query points, %zu H-query points\n",
                keys.pk.aPoints.size(), keys.pk.hPoints.size());

    // 3. Prove.
    zk::ProverTiming timing;
    const auto proof = zk::prove<Bn254>(keys.pk, circuit.r1cs,
                                        circuit.wires, prng,
                                        &timing);
    std::printf("prove: %.2f ms total (NTT %.2f, MSM %.2f, others "
                "%.2f), %zu MSM points\n",
                timing.totalSeconds() * 1e3,
                timing.nttSeconds * 1e3, timing.msmSeconds * 1e3,
                timing.otherSeconds * 1e3, timing.msmPoints);

    // 4. Verify (trapdoor oracle; see DESIGN.md).
    const std::vector<F> public_inputs(
        circuit.wires.begin() + 1,
        circuit.wires.begin() + 1 + circuit.r1cs.numPublic());
    const bool ok =
        zk::verify<Bn254>(keys.vk, proof, public_inputs);
    std::printf("verify: %s\n", ok ? "ACCEPT" : "REJECT");

    // 5. A tampered public input must be rejected.
    auto bad_inputs = public_inputs;
    bad_inputs[0] += F::one();
    const bool rejected =
        !zk::verify<Bn254>(keys.vk, proof, bad_inputs);
    std::printf("tampered public input rejected: %s\n",
                rejected ? "yes" : "NO");

    // 6. The real-protocol G2 half: B over G2 via a G2 MSM, and the
    //    compressed wire format.
    const auto ext = zk::extendSetupG2<zk::Bn254Pair>(keys.pk);
    const auto b2 =
        zk::proveB2<zk::Bn254Pair>(ext, circuit.wires, proof.sBlind);
    const bool g2_ok = zk::verifyWithG2<zk::Bn254Pair>(
        keys.vk, proof, b2, public_inputs);
    const std::size_t wire_bytes =
        2 * encodedPointSize<Bn254>() + encodedPointSize<Bn254G2>();
    std::printf("G2 element verified: %s; compressed proof wire "
                "size: %zu bytes (paper: ~127)\n",
                g2_ok ? "yes" : "NO", wire_bytes);

    // 7. The Table 4 applications this pipeline stands in for.
    std::printf("\npaper workloads (Table 4):\n");
    for (const auto &spec : zk::table4Workloads()) {
        std::printf("  %-14s %10llu constraints, libsnark %.1f s\n",
                    spec.name,
                    static_cast<unsigned long long>(
                        spec.constraints),
                    spec.libsnarkSeconds);
    }
    return ok && rejected && g2_ok ? 0 : 1;
}
