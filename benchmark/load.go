package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/httpapi"
)

// maxConstructSteps bounds one construction dialogue; dialogues over the
// movies schema converge in far fewer answers.
const maxConstructSteps = 12

// client is one closed-loop caller: it owns one keep-alive connection
// and waits for each reply before sending the next request.
type client struct {
	http *http.Client
	url  string
	buf  bytes.Buffer
}

func newClient(url string) *client {
	return &client{url: url, http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one request and returns the response body, which is valid
// until the next call. Any transport error or non-200 status is an error.
func (c *client) post(path string, body []byte) ([]byte, error) {
	resp, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, c.buf.Bytes())
	}
	return c.buf.Bytes(), nil
}

// do issues one op over HTTP.
func (c *client) do(o op) ([]byte, error) {
	return driveOp(o, func(body []byte) ([]byte, error) { return c.post(kindPaths[o.kind], body) })
}

// driveOp sends an op's request through post and returns the final
// response body. A construct op drives its dialogue to completion,
// alternating accept and reject like an exploring user, and cancels a
// session that did not converge so none is left behind. The HTTP clients
// and the in-process ledger replay share it, so both send the same steps.
func driveOp(o op, post func(body []byte) ([]byte, error)) ([]byte, error) {
	body, err := post(o.body)
	if err != nil || o.kind != opConstruct {
		return body, err
	}
	var step httpapi.ConstructStepResponse
	if err := json.Unmarshal(body, &step); err != nil {
		return nil, fmt.Errorf("construct start: %w", err)
	}
	actions := [2]string{"accept", "reject"}
	for i := 0; i < maxConstructSteps && !step.Done && step.Question != nil; i++ {
		body, err = post(mustJSON(httpapi.ConstructStepRequest{Action: actions[i%2], SessionID: step.SessionID}))
		if err != nil {
			return nil, err
		}
		step = httpapi.ConstructStepResponse{}
		if err := json.Unmarshal(body, &step); err != nil {
			return nil, fmt.Errorf("construct step: %w", err)
		}
	}
	if !step.Done {
		return post(mustJSON(httpapi.ConstructStepRequest{Action: "cancel", SessionID: step.SessionID}))
	}
	return body, nil
}

// repeatCheck holds the first response digest seen per slot; every later
// response of the slot must match it. On rows.zipf this compares answers
// served from the cache with the answer that was executed.
type repeatCheck struct {
	mu    sync.Mutex
	first map[int][sha256.Size]byte
}

func (r *repeatCheck) consistent(slot int, body []byte) bool {
	sum := sha256.Sum256(body)
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, seen := r.first[slot]
	if !seen {
		r.first[slot] = sum
		return true
	}
	return prev == sum
}

// loadResult is what one timed section observed.
type loadResult struct {
	elapsed   time.Duration
	attempted int
	failed    int
	firstErr  error
	exhausted bool              // a non-cycled op list ran out before the deadline
	latencies [numKinds][]int64 // nanoseconds per completed op
	ackedKeys []string          // keys of acknowledged mutate ops
}

// runLoad drives the server with `clients` closed-loop callers that pull
// the next op index from one counter, until the deadline passes (ops in
// flight then finish and count) or a non-cycled list is exhausted.
func runLoad(url string, ops []op, cycle bool, d time.Duration, check *repeatCheck) loadResult {
	type perClient struct {
		attempted, failed int
		firstErr          error
		latencies         [numKinds][]int64
		ackedKeys         []string
	}
	var (
		next      atomic.Int64
		exhausted atomic.Bool
		wg        sync.WaitGroup
		parts     [clients]perClient
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := range parts {
		wg.Add(1)
		go func(p *perClient) {
			defer wg.Done()
			c := newClient(url)
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					if !cycle {
						exhausted.Store(true)
						return
					}
					i %= len(ops)
				}
				t0 := time.Now()
				if t0.After(deadline) {
					return
				}
				o := ops[i]
				body, err := c.do(o)
				ns := time.Since(t0).Nanoseconds()
				p.attempted++
				if err == nil && o.slot >= 0 && check != nil && !check.consistent(o.slot, body) {
					err = fmt.Errorf("op %d: response differs from the first response to the same request", i)
				}
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.latencies[o.kind] = append(p.latencies[o.kind], ns)
				if o.kind == opMutate {
					p.ackedKeys = append(p.ackedKeys, o.key)
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	res := loadResult{elapsed: time.Since(start), exhausted: exhausted.Load()}
	for i := range parts {
		p := &parts[i]
		res.attempted += p.attempted
		res.failed += p.failed
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
		for k := range p.latencies {
			res.latencies[k] = append(res.latencies[k], p.latencies[k]...)
		}
		res.ackedKeys = append(res.ackedKeys, p.ackedKeys...)
	}
	for k := range res.latencies {
		slices.Sort(res.latencies[k])
	}
	return res
}

// succeeded is the number of ops that completed with a correct reply.
func (r *loadResult) succeeded() int { return r.attempted - r.failed }

// quantile returns the nearest-rank q-quantile of an ascending sample,
// 0 for an empty one.
func quantile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// quantileMS is quantile over nanosecond samples, in milliseconds.
func quantileMS(sorted []int64, q float64) float64 {
	return float64(quantile(sorted, q)) / 1e6
}

// kindStats is the per-op-kind latency summary written to result.json.
// Every line carries its sample count.
type kindStats struct {
	Samples int     `json:"samples"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
}

func summarize(sorted []int64) kindStats {
	if len(sorted) == 0 {
		return kindStats{}
	}
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	return kindStats{
		Samples: len(sorted),
		MeanMS:  float64(sum) / float64(len(sorted)) / 1e6,
		P50MS:   quantileMS(sorted, 0.50),
		P90MS:   quantileMS(sorted, 0.90),
		P95MS:   quantileMS(sorted, 0.95),
		P99MS:   quantileMS(sorted, 0.99),
		MaxMS:   float64(sorted[len(sorted)-1]) / 1e6,
	}
}
