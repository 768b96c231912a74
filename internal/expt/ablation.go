package expt

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/datagraph"
	"repro/internal/metrics"
	"repro/internal/prob"
	"repro/internal/relstore"
)

// AblationOptionPolicy compares the information-gain option policy of IQP
// against the highest-probability-first ablation on a workload.
func AblationOptionPolicy(env *Env, intents []datagen.Intent) (*Table, error) {
	model := env.Model(prob.Config{})
	table := &Table{
		Title:   fmt.Sprintf("Ablation (%s): option selection policy", env.Name),
		Headers: []string{"policy", "mean steps", "median", "max", "n"},
	}
	for _, p := range []struct {
		name   string
		policy core.OptionPolicy
	}{
		{"information gain", core.PolicyInformationGain},
		{"probability-first", core.PolicyProbability},
	} {
		var steps []float64
		for _, in := range intents {
			c := env.Candidates(in.Keywords)
			space := env.Space(c, 0)
			intended, ok := env.ResolveIntent(in, space)
			if !ok {
				continue
			}
			sess, err := core.NewSessionContext(context.Background(), model, c, core.SessionConfig{
				StopAtRemaining: 5, OptionPolicy: p.policy,
			})
			if err != nil {
				continue
			}
			run, err := core.RunConstruction(context.Background(), sess, core.NewSimulatedUser(intended))
			if err != nil {
				continue
			}
			steps = append(steps, float64(run.Steps))
		}
		b := metrics.Summarize(steps)
		table.AddRow(p.name, b.Mean, b.Median, b.Max, b.N)
	}
	return table, nil
}

// AblationSmoothing sweeps the ATF smoothing parameter α (Equation 3.8)
// and measures the construction cost.
func AblationSmoothing(env *Env, intents []datagen.Intent, alphas []float64) (*Table, error) {
	table := &Table{
		Title:   fmt.Sprintf("Ablation (%s): ATF smoothing α", env.Name),
		Headers: []string{"alpha", "mean steps", "median", "n"},
	}
	for _, alpha := range alphas {
		model := env.Model(prob.Config{Alpha: alpha})
		var steps []float64
		for _, in := range intents {
			c := env.Candidates(in.Keywords)
			space := env.Space(c, 0)
			intended, ok := env.ResolveIntent(in, space)
			if !ok {
				continue
			}
			sess, err := core.NewSessionContext(context.Background(), model, c, core.SessionConfig{StopAtRemaining: 5})
			if err != nil {
				continue
			}
			run, err := core.RunConstruction(context.Background(), sess, core.NewSimulatedUser(intended))
			if err != nil {
				continue
			}
			steps = append(steps, float64(run.Steps))
		}
		b := metrics.Summarize(steps)
		table.AddRow(alpha, b.Mean, b.Median, b.N)
	}
	return table, nil
}

// AblationThreshold sweeps the greedy expansion threshold on a real
// workload (complementing the simulated sweep of Tables 3.2/3.3).
func AblationThreshold(env *Env, intents []datagen.Intent, thresholds []int) (*Table, error) {
	model := env.Model(prob.Config{})
	table := &Table{
		Title:   fmt.Sprintf("Ablation (%s): greedy expansion threshold", env.Name),
		Headers: []string{"threshold", "mean steps", "median", "n"},
	}
	for _, th := range thresholds {
		var steps []float64
		for _, in := range intents {
			c := env.Candidates(in.Keywords)
			space := env.Space(c, 0)
			intended, ok := env.ResolveIntent(in, space)
			if !ok {
				continue
			}
			sess, err := core.NewSessionContext(context.Background(), model, c, core.SessionConfig{
				Threshold: th, StopAtRemaining: 5,
			})
			if err != nil {
				continue
			}
			run, err := core.RunConstruction(context.Background(), sess, core.NewSimulatedUser(intended))
			if err != nil {
				continue
			}
			steps = append(steps, float64(run.Steps))
		}
		b := metrics.Summarize(steps)
		table.AddRow(th, b.Mean, b.Median, b.N)
	}
	return table, nil
}

// AblationDataVsSchema compares the two §2.2 families on identical data:
// the data-based BANKS-style search (tuple-graph backward expansion)
// against the schema-based pipeline (interpretation generation +
// execution of the top interpretation), reporting result agreement and
// wall-clock per query.
func AblationDataVsSchema(env *Env, intents []datagen.Intent) (*Table, error) {
	model := env.Model(prob.Config{})
	g := datagraph.Build(env.DB)
	table := &Table{
		Title: fmt.Sprintf("Ablation (%s): data-based vs schema-based search", env.Name),
		Headers: []string{"family", "answered", "avg results", "avg time/query",
			"n"},
	}
	var dataResults, schemaResults []float64
	var dataTime, schemaTime time.Duration
	answeredData, answeredSchema := 0, 0
	n := 0
	for _, in := range intents {
		n++
		start := time.Now()
		trees, err := g.Search(in.Keywords, datagraph.Options{K: 10})
		if err != nil {
			return nil, err
		}
		dataTime += time.Since(start)
		if len(trees) > 0 {
			answeredData++
			dataResults = append(dataResults, float64(len(trees)))
		}

		start = time.Now()
		c := env.Candidates(in.Keywords)
		space := env.Space(c, 0)
		ranked, err := model.RankContext(context.Background(), space)
		if err != nil {
			return nil, err
		}
		found := 0
		if len(ranked) > 0 {
			plan, err := ranked[0].Q.JoinPlan()
			if err == nil {
				if jtts, err := env.DB.Execute(plan, relstore.ExecuteOptions{Limit: 10}); err == nil {
					found = len(jtts)
				}
			}
		}
		schemaTime += time.Since(start)
		if found > 0 {
			answeredSchema++
			schemaResults = append(schemaResults, float64(found))
		}
	}
	if n == 0 {
		return table, nil
	}
	table.AddRow("data-based (BANKS)", answeredData, metrics.Mean(dataResults),
		(dataTime / time.Duration(n)).Round(time.Microsecond).String(), n)
	table.AddRow("schema-based (IQP top-1)", answeredSchema, metrics.Mean(schemaResults),
		(schemaTime / time.Duration(n)).Round(time.Microsecond).String(), n)
	return table, nil
}
