// Package temporal implements the temporal-only aggregation baseline
// (paper §III.D, the 1-D Ocelotl technique [11][12]): the optimal
// order-consistent partition of the spatially-averaged trace {S}×T,
// computed by dynamic programming in O(|T|²) pIC evaluations — the optimal
// interval-partitioning scheme of Jackson et al. [20].
//
// Each microscopic individual is one slice with its resource-averaged state
// proportions ρ_x(S, {t}); each candidate aggregate is an interval T_(i,j).
package temporal

import (
	"fmt"
	"math"

	"ocelotl/internal/measures"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/partition"
)

// Aggregator precomputes prefix sums for the spatially-averaged trace so
// any interval's gain/loss is O(|X|).
type Aggregator struct {
	Model *microscopic.Model
	T, X  int

	prefD   [][]float64 // prefD[x][t]  = Σ_{t'<t} Σ_s d_x(s,t')
	prefRho [][]float64 // prefRho[x][t]= Σ_{t'<t} ρ_x(S,{t'})
	prefRL  [][]float64 // prefRL[x][t] = Σ_{t'<t} ρ·log₂ρ
	durPref []float64
}

// New builds the prefix sums in O(|X|·|S|·|T|).
func New(m *microscopic.Model) *Aggregator {
	T, X := m.NumSlices(), m.NumStates()
	a := &Aggregator{Model: m, T: T, X: X,
		prefD:   make([][]float64, X),
		prefRho: make([][]float64, X),
		prefRL:  make([][]float64, X),
		durPref: make([]float64, T+1),
	}
	for t := 0; t < T; t++ {
		a.durPref[t+1] = a.durPref[t] + m.SliceDur[t]
	}
	n := m.NumResources()
	for x := 0; x < X; x++ {
		a.prefD[x] = make([]float64, T+1)
		a.prefRho[x] = make([]float64, T+1)
		a.prefRL[x] = make([]float64, T+1)
		row := m.StateRow(x)
		for t := 0; t < T; t++ {
			var d float64
			for s := 0; s < n; s++ {
				d += row[s*T+t]
			}
			rho := 0.0
			if sd := m.SliceDur[t]; sd > 0 {
				rho = d / (float64(n) * sd)
			}
			a.prefD[x][t+1] = a.prefD[x][t] + d
			a.prefRho[x][t+1] = a.prefRho[x][t] + rho
			a.prefRL[x][t+1] = a.prefRL[x][t] + measures.PLogP(rho)
		}
	}
	return a
}

// IntervalGainLoss returns the gain and loss of aggregating slices [i, j]
// of the spatially-averaged trace (the microscopic individuals being the
// single slices).
func (a *Aggregator) IntervalGainLoss(i, j int) (gain, loss float64) {
	// The spatially-averaged trace has one "resource" (the whole set S);
	// the d sums still count all |S| resources' seconds, so the effective
	// size in the Eq. 1 normalizer is |S|.
	den := float64(a.Model.NumResources()) * (a.durPref[j+1] - a.durPref[i])
	for x := 0; x < a.X; x++ {
		g, l := measures.GainLoss(
			a.prefD[x][j+1]-a.prefD[x][i],
			a.prefRho[x][j+1]-a.prefRho[x][i],
			a.prefRL[x][j+1]-a.prefRL[x][i],
			den)
		gain += g
		loss += l
	}
	return gain, loss
}

// Run returns the optimal order-consistent partition at ratio p via the
// classic O(|T|²) DP: OPT(j) = max_{i ≤ j} OPT(i−1) + pIC(i, j). Ties favor
// the longest aggregate ending at j (i.e. the earliest i), which mirrors
// Algorithm 1's preference for aggregation.
func (a *Aggregator) Run(p float64) (*partition.Partition, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("temporal: p = %v out of [0,1]", p)
	}
	T := a.T
	opt := make([]float64, T+1) // opt[k] = best pIC of slices [0,k)
	cut := make([]int, T+1)     // start of the last interval in the best split of [0,k)
	for j := 0; j < T; j++ {
		best := math.Inf(-1)
		bestI := 0
		for i := 0; i <= j; i++ {
			g, l := a.IntervalGainLoss(i, j)
			v := opt[i] + measures.PIC(p, g, l)
			// A strict noise-tolerant comparison keeps the earliest
			// i, i.e. the most aggregated alternative, on ties.
			if measures.Improves(v, best) {
				best, bestI = v, i
			}
		}
		opt[j+1], cut[j+1] = best, bestI
	}
	pt := &partition.Partition{P: p}
	root := a.Model.H.Root
	for k := T; k > 0; {
		i := cut[k]
		g, l := a.IntervalGainLoss(i, k-1)
		pt.Areas = append(pt.Areas, partition.Area{Node: root, I: i, J: k - 1})
		pt.Gain += g
		pt.Loss += l
		k = i
	}
	pt.PIC = measures.PIC(p, pt.Gain, pt.Loss)
	pt.Sort()
	return pt, nil
}

// Intervals returns just the (i, j) interval bounds of the optimal
// temporal partition at p, ordered by time.
func (a *Aggregator) Intervals(p float64) ([][2]int, error) {
	pt, err := a.Run(p)
	if err != nil {
		return nil, err
	}
	out := make([][2]int, len(pt.Areas))
	for i, ar := range pt.Areas {
		out[i] = [2]int{ar.I, ar.J}
	}
	return out, nil
}

// BestPIC returns the optimal total pIC at p without materializing the
// partition (used by tests against brute force).
func (a *Aggregator) BestPIC(p float64) float64 {
	pt, err := a.Run(p)
	if err != nil {
		return math.NaN()
	}
	return pt.PIC
}
