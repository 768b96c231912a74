package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/query"
)

// SimulatedUser is the accept/reject oracle of the automatic experiments
// (Section 3.8.2): it accepts an option iff the option subsumes the
// ground-truth intended interpretation. It also carries the human time
// model used to reproduce the user-study comparison of Figure 3.7.
type SimulatedUser struct {
	// Intended is the ground-truth complete interpretation.
	Intended *query.Interpretation

	// SecondsPerOption is the time a participant spends evaluating one
	// query construction option. Calibrated from the thesis's category-11
	// datum (63 s for ≈7 options): 9 s/option.
	SecondsPerOption float64
	// SecondsPerRank is the time spent scanning one entry of the ranked
	// query list. Calibrated from the category-11 ranking datum
	// (270 s for ranks above 220): 1.2 s/entry.
	SecondsPerRank float64
	// SetupSeconds is the fixed per-task overhead (reading the task,
	// typing keywords): 10 s.
	SetupSeconds float64
}

// NewSimulatedUser returns a user with the calibrated time model.
func NewSimulatedUser(intended *query.Interpretation) *SimulatedUser {
	return &SimulatedUser{
		Intended:         intended,
		SecondsPerOption: 9,
		SecondsPerRank:   1.2,
		SetupSeconds:     10,
	}
}

// Evaluate decides on one option: accept iff it subsumes the intent.
func (u *SimulatedUser) Evaluate(o query.Option) bool {
	return o.Subsumes(u.Intended)
}

// ConstructionTime returns the modelled wall-clock time of a construction
// session with the given interaction cost and the final scan over the
// remaining interpretations.
func (u *SimulatedUser) ConstructionTime(steps, remainingRank int) time.Duration {
	secs := u.SetupSeconds + float64(steps)*u.SecondsPerOption + float64(remainingRank)*u.SecondsPerRank
	return time.Duration(secs * float64(time.Second))
}

// RankingTime returns the modelled wall-clock time of finding the intent
// at the given rank of a plain ranked list.
func (u *SimulatedUser) RankingTime(rank int) time.Duration {
	secs := u.SetupSeconds + float64(rank)*u.SecondsPerRank
	return time.Duration(secs * float64(time.Second))
}

// ConstructionResult reports one automatic construction run.
type ConstructionResult struct {
	// Steps is the number of options the user evaluated (the interaction
	// cost of Definition 3.5.9).
	Steps int
	// RemainingRank is the 1-based rank of the intended interpretation in
	// the final Remaining() list (0 when it was filtered out, which
	// indicates an inconsistent oracle and is reported as an error).
	RemainingRank int
	// Remaining is the size of the final candidate list.
	Remaining int
	// OptionTime is the cumulative wall-clock computation time spent
	// generating options (the system-side response time of Table 3.2).
	OptionTime time.Duration
}

// RunConstruction drives a session to completion with the simulated user:
// the session proposes options, the user evaluates them, and construction
// stops when at most StopAtRemaining interpretations remain or no option
// splits the space further. It returns the interaction statistics, or
// the first error an answer's hierarchy expansion returns.
func RunConstruction(ctx context.Context, s *Session, u *SimulatedUser) (ConstructionResult, error) {
	var res ConstructionResult
	intendedKey := u.Intended.Key()
	for !s.Done() {
		start := time.Now()
		opt, ok := s.NextOption()
		res.OptionTime += time.Since(start)
		if !ok {
			break
		}
		var err error
		if u.Evaluate(opt) {
			err = s.AcceptContext(ctx, opt)
		} else {
			err = s.RejectContext(ctx, opt)
		}
		if err != nil {
			return res, err
		}
	}
	res.Steps = s.Steps()
	remaining := s.Remaining()
	res.Remaining = len(remaining)
	for i, sc := range remaining {
		if sc.Q.Key() == intendedKey {
			res.RemainingRank = i + 1
			break
		}
	}
	if res.RemainingRank == 0 {
		return res, fmt.Errorf("core: intended interpretation filtered out (inconsistent oracle or incomplete hierarchy)")
	}
	return res, nil
}
