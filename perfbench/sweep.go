package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// sweepRun is the sweep workload: one closed-loop client sending /quality
// and /significant requests over windows warmed in set-up, so every
// request is a cache hit and the solve kernels do the work.
type sweepRun struct{ batchRun }

func (s *sweepRun) measure(tr *Tracer) (*phase, error) {
	s.keep = newKeeper(s.pl.Seed, len(s.pl.Requests))
	return runClosed(s.d, s.pl.Requests, tr, s.keep, func(i int, resp response) string {
		return s.pl.Requests[i].Class
	})
}

type pointsBody struct {
	Points []qualityJSON `json:"points"`
}

type aggregateBody struct {
	Gain  float64           `json:"gain"`
	Loss  float64           `json:"loss"`
	Areas []json.RawMessage `json:"areas"`
}

// oracle checks every point of the kept /quality and /significant
// answers against a per-p /aggregate on the same window: gain and loss
// must be equal to the bit and the area counts must agree.
func (s *sweepRun) oracle(*phase) (checked, failed int, err error) {
	idx := make([]int, 0, len(s.keep.bodies))
	for i := range s.keep.bodies {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var buf bytes.Buffer
	for _, i := range idx {
		var sweep pointsBody
		if err := json.Unmarshal(s.keep.bodies[i], &sweep); err != nil {
			return checked, failed, fmt.Errorf("request %d: %w", i, err)
		}
		checked++
		bad := len(sweep.Points) == 0
		for _, pt := range sweep.Points {
			r := s.pl.Requests[i]
			r.Endpoint, r.P = "aggregate", pt.P
			resp, err := s.d.get(r.URL(traceID), &buf)
			if err != nil {
				return checked, failed, err
			}
			var agg aggregateBody
			if !resp.ok() || json.Unmarshal(resp.body, &agg) != nil ||
				agg.Gain != pt.Gain || agg.Loss != pt.Loss || len(agg.Areas) != pt.Areas {
				bad = true
			}
		}
		if bad {
			failed++
		}
	}
	return checked, failed, nil
}

func (s *sweepRun) replay(tr *Tracer, p *phase) (map[string]Metric, error) {
	sh, err := s.newShadow(tr)
	if err != nil {
		return nil, err
	}
	points := 0
	for i, pi := range p.plan {
		r := s.pl.Requests[pi]
		sl, err := r.Window()
		if err != nil {
			return nil, err
		}
		rid := p.reqSpan[i]
		if err := sh.doAdmit(i, rid, sl); err != nil {
			return nil, err
		}
		in, err := sh.input(i, rid+1, sl, p.kind[i])
		if err != nil {
			return nil, err
		}
		n, err := sh.sweep(i, rid, in, r, &p.crc[i])
		if err != nil {
			return nil, err
		}
		points += n
	}
	var kernel time.Duration
	for _, sp := range tr.Spans() {
		if sp.Name == "core.sweep" || sp.Name == "core.significant" {
			kernel += sp.Dur()
		}
	}
	return map[string]Metric{
		"trace.replay_mismatch": {float64(sh.mismatches), "count"},
		"core.ps_per_s":         {float64(points) / kernel.Seconds(), "1/s"},
	}, nil
}
