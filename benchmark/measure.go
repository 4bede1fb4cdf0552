package main

import (
	"context"
	"fmt"
	"time"
)

// segments is how many slices a run is cut into. The log shows the median
// latency of each, so drift inside a run is visible, and the traced pass
// records spans on every second one.
const segments = 8

// sample is what one measured pass over a workload yields.
type sample struct {
	attempted, failed int
	firstErr          error
	lat               []float64   // ms, every successful DP operation
	latTraced         []float64   // ms, those of them that ran under a span,
	latPlain          []float64   // and those that did not
	latByKind         [][]float64 // ms
	dpWall            time.Duration
	cpu               time.Duration // of target.pid() over the segments
	counts            counters      // growth over the segments (traced pass)
	segP50            []float64     // ms, per segment: how the run drifted
}

func (s *sample) ops() int { return s.attempted - s.failed }

// measure drives t for budget of wall time, closed loop with one client: the
// next operation is sent when the previous reply has been read and checked.
// (A second client on this two-core host shares the cores with the server
// and doubled the run-to-run spread, so there is one.) A segment ends once
// its time slice is over and the rotation over the slots is complete, so each
// kind is sampled equally often. With a tracer, every second segment records
// spans and the others do not: the two halves see the same drift, so the
// difference of their medians is the tracing overhead.
func measure(ctx context.Context, t target, budget time.Duration, spans *tracer) (*sample, error) {
	s := &sample{latByKind: make([][]float64, len(t.kinds()))}
	slice := budget / segments
	start := time.Now()
	for seg, i := 0, 0; time.Since(start) < budget; seg++ {
		var tr *tracer
		if seg%2 == 1 {
			tr = spans
		}
		cpu0, _, err := procStat(t.pid())
		if err != nil {
			return nil, err
		}
		var c0 counters
		if spans != nil {
			if c0, err = t.counters(); err != nil {
				return nil, err
			}
		}
		segFirst := len(s.lat)
		segStart := time.Now()
		for done := 0; done%t.cycle() != 0 || time.Since(segStart) < slice; done++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			d, err := t.do(ctx, tr, i)
			s.attempted++
			if err != nil {
				s.failed++
				if s.firstErr == nil {
					s.firstErr = fmt.Errorf("operation %d: %w", i, err)
				}
			} else {
				s.lat = append(s.lat, ms(d))
				if tr != nil {
					s.latTraced = append(s.latTraced, ms(d))
				} else {
					s.latPlain = append(s.latPlain, ms(d))
				}
				s.latByKind[t.kindOf(i)] = append(s.latByKind[t.kindOf(i)], ms(d))
			}
			i++
		}
		s.dpWall += time.Since(segStart)
		s.segP50 = append(s.segP50, percentile(s.lat[segFirst:], 0.5))
		cpu1, _, err := procStat(t.pid())
		if err != nil {
			return nil, err
		}
		s.cpu += cpu1 - cpu0
		if spans != nil {
			c1, err := t.counters()
			if err != nil {
				return nil, err
			}
			s.counts = s.counts.plus(c1.minus(c0))
		}
	}
	return s, nil
}

// endToEnd turns an untraced sample into the end-to-end metrics (set-up time
// is added by the caller).
func endToEnd(t target, s *sample) (map[string]float64, error) {
	if s.ops() == 0 {
		return nil, fmt.Errorf("no operation succeeded: %w", s.firstErr)
	}
	_, peakRSS, err := procStat(t.pid())
	if err != nil {
		return nil, err
	}
	var release []float64
	for k, name := range t.kinds() {
		if len(s.latByKind[k]) == 0 {
			return nil, fmt.Errorf("kind %s has no successful sample", name)
		}
		release = append(release, median(s.latByKind[k]))
	}
	return map[string]float64{
		"throughput_rps":     float64(s.ops()) / s.dpWall.Seconds(),
		"latency_p50_ms":     percentile(s.lat, 0.50),
		"latency_p90_ms":     percentile(s.lat, 0.90),
		"cpu_ms_per_op":      ms(s.cpu) / float64(s.ops()),
		"peak_rss_mb":        peakRSS,
		"release_geomean_ms": geomean(release),
	}, nil
}
