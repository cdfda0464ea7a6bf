/**
 * @file
 * Thread-local field-arithmetic backend selection.
 *
 * The simulated kernels can route every Fp multiplication through the
 * tensor-core Montgomery model (tcmul/mont_tc.h) instead of the host
 * multiplier (the 4-limb ADX kernel where the CPU has BMI2 and ADX,
 * else CIOS; see Fp::operator*). The choice is a thread-local flag so
 * the engine can scope it to the simulated-kernel bodies it runs on
 * pool workers without touching unrelated host arithmetic on other
 * threads. Every path is bit-identical (asserted by test_tcmul,
 * test_tc_backend and test_field), but the TC path is 1-2 orders of
 * magnitude slower to simulate, so it is engaged only when a caller
 * forces MsmOptions::fieldBackend = TensorCore — the planner's Auto
 * pick prices TC without executing it.
 */

#ifndef DISTMSM_FIELD_BACKEND_H
#define DISTMSM_FIELD_BACKEND_H

#include <cstdint>

namespace distmsm::field {

/** Per-thread backend state read by Fp's multiply dispatch. */
struct TcBackendState
{
    /** Route Fp::operator* / Fp::sqr through tcmul::montMulTC. */
    bool active = false;
};

inline TcBackendState &
tcBackendState()
{
    static thread_local TcBackendState state;
    return state;
}

/** True when the calling thread executes field muls on the TC path. */
inline bool
tcBackendActive()
{
    return tcBackendState().active;
}

/**
 * RAII scope that switches the calling thread's field multiplications
 * onto the tensor-core differential path. Nests correctly (restores
 * the previous state), so an engine running under a scope can open
 * per-kernel scopes freely.
 */
class TcBackendScope
{
  public:
    explicit TcBackendScope(bool enable)
        : prev_(tcBackendState().active)
    {
        tcBackendState().active = enable;
    }
    ~TcBackendScope() { tcBackendState().active = prev_; }

    TcBackendScope(const TcBackendScope &) = delete;
    TcBackendScope &operator=(const TcBackendScope &) = delete;

  private:
    bool prev_;
};

} // namespace distmsm::field

#endif // DISTMSM_FIELD_BACKEND_H
