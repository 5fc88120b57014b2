package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// keeper picks the response bodies an oracle re-checks: the first few of
// every request class plus a seeded sample of the rest, so every build
// path is checked without storing every body.
type keeper struct {
	perClass map[string]int
	sample   map[int]bool
	bodies   map[int][]byte
}

// keepPerClass and keepSample size the oracle's re-check set.
const (
	keepPerClass = 3
	keepSample   = 8
)

func newKeeper(seed int64, n int) *keeper {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	k := &keeper{perClass: map[string]int{}, sample: map[int]bool{}, bodies: map[int][]byte{}}
	for i := 0; i < keepSample && n > 0; i++ {
		k.sample[rng.Intn(n)] = true
	}
	return k
}

func (k *keeper) offer(i int, class string, body []byte) {
	if k.perClass[class] < keepPerClass || k.sample[i] {
		k.perClass[class]++
		k.bodies[i] = bytes.Clone(body)
	}
}

// recordRequest adds one answered request to the phase, with its root and
// cache-lookup spans when tracing: the cache span is the server's own
// X-Ocelotl-Build-Us measurement of InputCache.Get.
func (p *phase) recordRequest(tr *Tracer, planIdx int, class string, start time.Time, lat time.Duration, resp response) {
	i := len(p.lat)
	p.lat = append(p.lat, lat)
	p.class = append(p.class, class)
	p.kind = append(p.kind, resp.kind)
	p.plan = append(p.plan, planIdx)
	if !resp.ok() {
		p.failed++
	}
	if tr == nil {
		return
	}
	p.crc = append(p.crc, crc32.Checksum(resp.body, castagnoli))
	s0 := tr.Since(start)
	rid := tr.Add(Span{Req: i, Name: "request", Kind: class, Start: s0, End: s0 + int64(lat)})
	p.reqSpan = append(p.reqSpan, rid)
	kind := resp.kind
	if class == "zoom_derived" {
		kind = class
	}
	tr.Add(Span{Parent: rid, Req: i, Name: "cache.get", Kind: kind,
		Start: s0, End: s0 + resp.buildUs*int64(time.Microsecond)})
}

// runClosed is one closed-loop client: it sends the plan's requests one
// after another, each as soon as the previous answer is read. classOf
// names each answered request's class.
func runClosed(d *daemon, reqs []Request, tr *Tracer, k *keeper, classOf func(i int, resp response) string) (*phase, error) {
	p := &phase{before: d.srv.CacheStats()}
	var buf bytes.Buffer
	t0 := time.Now()
	for i, r := range reqs {
		start := time.Now()
		resp, err := d.get(r.URL(traceID), &buf)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		lat := time.Since(start)
		class := classOf(i, resp)
		p.recordRequest(tr, i, class, start, lat, resp)
		if k != nil && resp.ok() {
			k.offer(i, class, resp.body)
		}
	}
	p.elapsed = time.Since(t0)
	p.rssMB = peakRSSMB()
	p.after = d.srv.CacheStats()
	return p, nil
}
