package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/httpapi"
	"repro/internal/admission"
	"repro/internal/loadgen"
)

// runOverload measures what admission control preserves when the
// serving path is oversubscribed, and whether the self-tuning governor
// matches a gate an operator placed by hand. One saturation ramp on the
// ungated server finds the knee; every later row is driven over the
// same engine and the same default mixed workload (searches, rows,
// diversify, construction dialogues, mutation batches):
//
//   - saturate-w*:     the closed-loop concurrency ramp, one row a step,
//   - open-half-knee:  an open loop at half the saturation rate, with
//     latency measured from scheduled arrivals — the honest steady-state
//     tail, which coordinated omission cannot hide,
//   - static-knee-8x:  8× the knee's workers against a gate fixed
//     at the knee (knee slots, 2×knee queue, 200 ms queue timeout, 5 s
//     deadline) — the best an omniscient operator can configure.
//     goodput_vs_saturation is its goodput over the ramp's: near 1 when
//     excess load is shed at the door and admitted requests run at full
//     speed. The row also carries the server-side proof that the queue
//     bound held,
//   - adaptive-8x:     the same load against the same gate under the AIMD
//     governor, told only a floor and the ramp's worker bound as ceiling. Cost bands default
//     to the corpus-derived p50/p90 of EstimateCost.
//     goodput_vs_static_knee is its goodput over the static row's: near 1
//     when the control loop finds the knee on its own. The governor_*
//     metrics show how: windows rotated, the limit stayed inside its
//     bounds, the cheap cost band shed at a lower rate than the heavy,
//   - ungated-8x:      no protection at all — the collapse the other two
//     prevent.
func runOverload(env *Env, cfg Config) (LegReport, error) {
	db, dataset, err := env.dataset(cfg.rows())
	if err != nil {
		return LegReport{}, err
	}
	env.logf("building engine (indexes, templates)...")
	eng, err := loadgen.NewEngine(db, loadgen.KindMovies)
	if err != nil {
		return LegReport{}, err
	}
	ops, err := loadgen.BuildWorkload(db, loadgen.KindMovies, loadgen.WorkloadConfig{Ops: 512, Seed: seed})
	if err != nil {
		return LegReport{}, err
	}
	rep := LegReport{Dataset: dataset, Params: map[string]any{"workload_ops": len(ops)}}
	newServer := func(opts ...httpapi.Option) *httpapi.Server {
		if cfg.Wrap != nil {
			opts = append(opts, httpapi.WithHandlerWrapper(cfg.Wrap))
		}
		return httpapi.New(eng, opts...)
	}

	env.logf("saturation ramp: doubling workers up to %d, %v per step...", cfg.rampWorkers(), cfg.step())
	ts := httptest.NewServer(newServer())
	sat, err := loadgen.FindSaturation(context.Background(), loadgen.SaturationOptions{
		Base:         loadgen.Options{BaseURL: ts.URL, Ops: ops},
		MaxWorkers:   cfg.rampWorkers(),
		StepDuration: cfg.step(),
	})
	ts.Close()
	if err != nil {
		return LegReport{}, err
	}
	for _, step := range sat.Steps {
		rep.Rows = append(rep.Rows, loadRow(fmt.Sprintf("saturate-w%d", step.Workers), step))
	}
	rep.Params["saturation_rps"], rep.Params["saturation_workers"] = sat.SaturationRPS, sat.AtWorkers
	env.logf("saturation: %.0f req/s at %d workers", sat.SaturationRPS, sat.AtWorkers)

	open, err := serve(newServer(), 0, loadgen.Options{
		Ops: ops, Workers: cfg.rampWorkers(), RateRPS: max(sat.SaturationRPS/2, 1), Duration: 2 * cfg.step()})
	if err != nil {
		return LegReport{}, err
	}
	rep.Rows = append(rep.Rows, loadRow("open-half-knee", open.res))

	knee := max(sat.AtWorkers, 2)
	const queueTimeout, deadline = 200 * time.Millisecond, 5 * time.Second
	overload := func(name string, opts ...httpapi.Option) (*served, Row, error) {
		env.logf("%s: driving %d workers for %v...", name, 8*knee, 2*cfg.step())
		run, err := serve(newServer(opts...), 0, loadgen.Options{Ops: ops, Workers: 8 * knee, Duration: 2 * cfg.step()})
		if err != nil {
			return nil, Row{}, err
		}
		return run, loadRow(name, run.res), nil
	}

	static, srow, err := overload("static-knee-8x", httpapi.WithRequestTimeout(deadline),
		httpapi.WithAdmission(httpapi.AdmissionConfig{MaxConcurrent: knee, MaxQueue: 2 * knee, QueueTimeout: queueTimeout}))
	if err != nil {
		return LegReport{}, err
	}
	if sat.SaturationRPS > 0 {
		srow.Ratios = map[string]float64{"goodput_vs_saturation": static.res.GoodputRPS / sat.SaturationRPS}
	}
	adm := static.after.Admission
	if adm.MaxQueued > int64(2*knee) {
		return LegReport{}, fmt.Errorf("queue grew past its bound (%d > %d)", adm.MaxQueued, 2*knee)
	}
	for k, v := range map[string]int64{
		"max_concurrent": int64(knee), "max_queue": int64(2 * knee),
		"max_queued_seen": adm.MaxQueued, "max_in_flight_seen": adm.MaxInFlight,
		"shed_queue_full": adm.ShedQueueFull, "shed_queue_timeout": adm.ShedQueueTimeout,
		"deadline_exceeded": adm.DeadlineExceeded,
	} {
		srow.Metrics[k] = float64(v)
	}
	rep.Rows = append(rep.Rows, srow)

	adaptive, arow, err := overload("adaptive-8x", httpapi.WithRequestTimeout(deadline),
		httpapi.WithAdmission(httpapi.AdmissionConfig{
			MinConcurrent: 2, MaxConcurrent: cfg.rampWorkers(),
			MaxQueue: 2 * knee, QueueTimeout: queueTimeout, Window: cfg.window(),
		}))
	if err != nil {
		return LegReport{}, err
	}
	if static.res.GoodputRPS > 0 {
		arow.Ratios = map[string]float64{"goodput_vs_static_knee": adaptive.res.GoodputRPS / static.res.GoodputRPS}
	}
	gov := adaptive.after.Adaptive
	if gov == nil {
		return LegReport{}, fmt.Errorf("adaptive row reported no governor state")
	}
	// shedRate is sheds/(sheds+admitted) of one cost band: cost-aware
	// shedding keeps the cheapest band's below the heaviest's.
	shedRate := func(b admission.BandStats) float64 {
		if total := b.Sheds() + b.Admitted; total > 0 {
			return float64(b.Sheds()) / float64(total)
		}
		return 0
	}
	for k, v := range map[string]float64{
		"governor_limit": float64(gov.Limit), "governor_min_limit": float64(gov.MinLimit),
		"governor_max_limit": float64(gov.MaxLimit), "governor_ref_p99_ms": gov.RefP99MS,
		"governor_windows": float64(gov.Windows), "governor_increases": float64(gov.Increases),
		"governor_backoffs": float64(gov.Backoffs), "governor_holds": float64(gov.Holds),
		"governor_avg_service_ms": gov.AvgServiceMS, "governor_bands": float64(len(gov.Bands)),
	} {
		arow.Metrics[k] = v
	}
	if n := len(gov.Bands); n > 0 {
		arow.Metrics["governor_cheap_shed_rate"] = shedRate(gov.Bands[0])
		arow.Metrics["governor_heavy_shed_rate"] = shedRate(gov.Bands[n-1])
	}
	rep.Rows = append(rep.Rows, arow)

	_, urow, err := overload("ungated-8x")
	if err != nil {
		return LegReport{}, err
	}
	rep.Rows = append(rep.Rows, urow)
	return rep, nil
}
