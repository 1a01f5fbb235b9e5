#ifndef KEQ_SMT_LAZY_Z3_STATE_H
#define KEQ_SMT_LAZY_Z3_STATE_H

/**
 * @file
 * Z3 backend state built on the first query instead of with the backend.
 *
 * Most solver stacks answer every query above their backend (rewrite,
 * slice, cache, journal): a warm keqd validates whole functions without
 * reaching Z3. Creating and destroying a z3::context costs ~2 ms (Z3
 * 4.8.12), so each backend keeps its context, and everything built on
 * it, in a LazyZ3State that creates them on the first checkSat.
 *
 * Interrupt contract: interruptQuery() may run on another thread at any
 * moment, including while the first query builds the state. The state
 * is published through an atomic pointer; an interrupt that finds none
 * is dropped. Nothing was running, and dropping it matches the
 * established handling of an interrupt that lands before a query (the
 * next query clears it as stray). Watchdogs and the portfolio reaper
 * keep re-firing until the attempt returns, so a dropped interrupt
 * never leaves a query running.
 */

#include <atomic>
#include <cstdint>

namespace keq::smt {

/** Z3 contexts this process has created, across every backend. */
uint64_t z3ContextsCreated();

namespace detail {
void noteZ3ContextCreated();
} // namespace detail

/**
 * Owns one State, constructed on the first get(). State must own
 * exactly one z3::context and provide a thread-safe interrupt(). Its
 * type may be incomplete where the holder is declared (a pimpl);
 * it must be complete where get() and the destructor are instantiated.
 */
template <class State>
class LazyZ3State
{
  public:
    LazyZ3State() = default;
    LazyZ3State(const LazyZ3State &) = delete;
    LazyZ3State &operator=(const LazyZ3State &) = delete;
    ~LazyZ3State() { delete state_.load(); }

    /** Owner thread only: the state, built on the first call. */
    State &
    get()
    {
        State *state = state_.load();
        if (state == nullptr) {
            state = new State();
            detail::noteZ3ContextCreated();
            state_.store(state);
        }
        return *state;
    }

    /** Any thread: interrupts the state if it exists yet. */
    void
    interrupt()
    {
        if (State *state = state_.load())
            state->interrupt();
    }

  private:
    std::atomic<State *> state_{nullptr};
};

} // namespace keq::smt

#endif // KEQ_SMT_LAZY_Z3_STATE_H
