package experiments

import (
	"runtime"
	"sync"

	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
)

// caseBundle is one Table II case prepared end to end: the generated
// trace (with its ground-truth perturbations), its microscopic model and
// its aggregation Input.
type caseBundle struct {
	res   *mpisim.Result
	model *microscopic.Model
	in    *core.Input
}

// casePrep memoizes case preparation across the experiments of one Run,
// so figures sharing a case (fig1 and fig2 both use case A) generate and
// build it once, and so Prebuild can batch the input passes of
// independent cases across the worker pool. Each case's once-guard is
// independent: two cases build concurrently, one case builds exactly
// once.
type casePrep struct {
	mu      sync.Mutex
	pending map[grid5000.Case]*caseOnce
}

type caseOnce struct {
	once   sync.Once
	bundle *caseBundle
	err    error
}

func newCasePrep() *casePrep {
	return &casePrep{pending: make(map[grid5000.Case]*caseOnce)}
}

func (p *casePrep) slot(c grid5000.Case) *caseOnce {
	p.mu.Lock()
	defer p.mu.Unlock()
	o, ok := p.pending[c]
	if !ok {
		o = &caseOnce{}
		p.pending[c] = o
	}
	return o
}

// bundle returns the prepared case, building it on first use.
func (cfg Config) bundle(c grid5000.Case) (*caseBundle, error) {
	if cfg.prep == nil { // direct Run* call without the Run dispatcher
		return buildBundle(cfg, c)
	}
	o := cfg.prep.slot(c)
	o.once.Do(func() { o.bundle, o.err = buildBundle(cfg, c) })
	return o.bundle, o.err
}

func buildBundle(cfg Config, c grid5000.Case) (*caseBundle, error) {
	res, err := mpisim.GenerateCase(c, mpisim.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	m, err := microscopic.Build(res.Trace, microscopic.Options{Slices: cfg.Slices})
	if err != nil {
		return nil, err
	}
	in, err := core.NewInputContext(cfg.context(), m, core.Options{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	return &caseBundle{res: res, model: m, in: in}, nil
}

// Prebuild batches the preparation of independent cases across the
// worker pool (the same worker-count option the serving layer uses)
// instead of letting each experiment build its case sequentially on first
// touch. Errors are left for the consuming experiment to report in
// context; Prebuild itself only warms the memo.
func (cfg Config) prebuild(cases []grid5000.Case) {
	if cfg.prep == nil || len(cases) < 2 {
		return
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cases) {
		workers = len(cases)
	}
	var wg sync.WaitGroup
	next := make(chan grid5000.Case)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				cfg.bundle(c)
			}
		}()
	}
	for _, c := range cases {
		next <- c
	}
	close(next)
	wg.Wait()
}
