#ifndef KEQ_SMT_PORTFOLIO_SOLVER_H
#define KEQ_SMT_PORTFOLIO_SOLVER_H

/**
 * @file
 * Portfolio racing over differently-tuned solver strategy lanes.
 *
 * A hard query rarely looks hard to every Z3 configuration: the default
 * QF_AUFBV engine, an int2bv-translating configuration, and a cold
 * fresh-solver lane have close to uncorrelated worst cases. The
 * PortfolioSolver fans each checkSat out to N persistent lane threads —
 * started by the first checkSat, each owning its own backend (own
 * z3::context) built from a LaneConfig — takes the first *definite*
 * Sat/Unsat answer, and reaps the losers through the same re-firing
 * interruptQuery() lever the GuardedSolver watchdog uses (an
 * incremental lane's Unknown guardrail re-enters Z3, so one interrupt
 * is not enough; we keep firing until the lane returns).
 *
 * Verdict-counter contract: one checkSat is ONE logical query no matter
 * how many lanes raced it. Lane work is folded through
 * foldNonVerdictStats, race outcomes land in the portfolio counters
 * (portfolioWins per lane, portfolioCancellations,
 * crossLaneDisagreements), and a losing lane's interrupt-induced
 * Unknown never surfaces as a user-visible failure classification.
 *
 * Disagreement oracle: if two lanes return contradictory definite
 * verdicts for the same assertions, the portfolio refuses to pick a
 * side — it reports Unknown with FailureKind::PortfolioDisagreement and
 * bumps crossLaneDisagreements. Strategy disagreement is a free
 * differential-soundness check; fuzz campaigns surface it as a
 * soundness bug.
 *
 * Threading contract: checkSat blocks until every lane has quiesced
 * before returning, so lane threads only ever read the shared
 * hash-consed term DAG while the checker thread is parked inside
 * checkSat — the TermFactory is never mutated concurrently with a
 * reader.
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/smt/evaluator.h"
#include "src/smt/solver.h"
#include "src/smt/term_factory.h"

namespace keq::smt {

/** One strategy lane: a named, tuned backend configuration. */
struct LaneConfig
{
    std::string name;        ///< stable label ("default", "int2bv", ...)
    bool incremental = true; ///< scope-reusing backend vs cold fresh-solver
    BackendTuning tuning;    ///< best-effort Z3 parameters
};

/**
 * Resolves a built-in lane name. Known names: "default" (incremental
 * QF_AUFBV, untuned), "int2bv" (incremental, bitvector-to-integer
 * translation plus aggressive rewriting), "cold" (fresh solver per
 * query, no incrementality), and "seed<K>" (incremental with
 * random_seed K, a cheap way to decorrelate extra lanes). Returns
 * false with @p error set for anything else.
 */
bool laneConfigFromName(const std::string &name, LaneConfig &out,
                        std::string &error);

/**
 * The built-in lane set for an N-lane portfolio:
 * 1 lane: default · 2: default,cold · 3: default,int2bv,cold ·
 * 4: default,int2bv,cold,seed7. N is clamped to
 * [1, SolverStats::kPortfolioMaxLanes].
 */
std::vector<LaneConfig> defaultPortfolioLanes(unsigned lanes);

/**
 * Parses a --portfolio-lanes spec: comma-separated lane entries, each a
 * built-in name optionally followed by `:key=value` tuning overrides
 * (e.g. "default,int2bv,cold:random_seed=3"). At most
 * SolverStats::kPortfolioMaxLanes entries. Returns false with @p error
 * set on malformed input.
 */
bool parsePortfolioLanes(const std::string &spec,
                         std::vector<LaneConfig> &out,
                         std::string &error);

/** Builds the in-process backend a LaneConfig describes. */
std::unique_ptr<Solver> makeLaneBackend(TermFactory &factory,
                                        const LaneConfig &config);

/** Races N strategy lanes per query; first definite answer wins. */
class PortfolioSolver : public Solver
{
  public:
    /**
     * @p lanes must hold 1..SolverStats::kPortfolioMaxLanes configs.
     * Each lane's backend is created here and its thread on the first
     * checkSat; both live for the solver's lifetime (warm lanes across
     * queries). A backend builds its Z3 context on its first query.
     */
    PortfolioSolver(TermFactory &factory, std::vector<LaneConfig> lanes);
    ~PortfolioSolver() override;

    SatResult checkSat(const std::vector<Term> &assertions) override;
    void setTimeoutMs(unsigned timeout_ms) override;
    void setMemoryBudgetMb(unsigned budget_mb) override;

    /**
     * Interrupts every lane; safe from another thread (the outer
     * GuardedSolver watchdog re-fires this until checkSat returns,
     * which forwards each firing to all in-flight lanes).
     */
    void interruptQuery() override;

    void enableModelCapture(bool enabled) override;
    bool lastModel(Assignment *out) const override;

    std::string lastUnknownReason() const override;
    FailureKind lastFailureKind() const override;
    const SolverStats &stats() const override { return stats_; }

    size_t laneCount() const;
    const std::string &laneName(size_t lane) const;

  protected:
    TermFactory &factory() override { return factory_; }

  private:
    struct Lane;
    struct State;

    void laneMain(size_t lane);

    TermFactory &factory_;
    std::unique_ptr<State> state_;
    SolverStats stats_;
    std::string lastUnknownReason_;
    FailureKind lastFailure_ = FailureKind::None;
    std::optional<Assignment> lastModel_;
};

} // namespace keq::smt

#endif // KEQ_SMT_PORTFOLIO_SOLVER_H
