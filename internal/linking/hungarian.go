package linking

import (
	"context"
	"math"

	"github.com/stslib/sts/internal/model"
)

// OptimalLink links two trajectory sets one-to-one maximizing the *total*
// similarity of the assignment, using the Hungarian algorithm (Kuhn–
// Munkres, in the O(n³) Jonker-style potential formulation). Compared to
// GreedyLink it trades speed for global optimality: a greedy assignment
// can lock a trajectory to its locally best partner and force a chain of
// bad links downstream; the optimal assignment cannot.
//
// Scoring is GreedyLink's: the FTL feasibility pre-filter masks pairs
// before they are scored, on the engine executor, and cancelling ctx
// aborts it promptly (the O(n·m²) assignment itself is not interruptible;
// it is cheap next to scoring). Pairs rejected by the threshold or the
// pre-filter are given −∞ utility and are dropped from the result if
// chosen anyway (which only happens when a row has no feasible partner at
// all).
func OptimalLink(ctx context.Context, b Batcher, d1, d2 model.Dataset, opts Options) ([]Link, error) {
	scores, _, err := scoreFeasible(ctx, b, d1, d2, opts)
	if err != nil {
		return nil, err
	}
	// Build the utility matrix with vetoes applied; masked-out pairs
	// scored −Inf.
	const veto = math.MaxFloat64 / 4
	n, m := len(d1), len(d2)
	util := make([][]float64, n)
	for i := range util {
		util[i] = make([]float64, m)
		for j := range util[i] {
			if s := scores[i][j]; s >= opts.MinScore && !math.IsInf(s, -1) {
				util[i][j] = s
			} else {
				util[i][j] = -veto
			}
		}
	}
	assign := hungarianMax(util)
	var links []Link
	for i, j := range assign {
		if j < 0 || util[i][j] <= -veto/2 {
			continue
		}
		links = append(links, Link{I: i, J: j, Score: scores[i][j]})
	}
	// Sort by descending score for parity with GreedyLink's contract.
	for x := 1; x < len(links); x++ {
		for y := x; y > 0 && links[y].Score > links[y-1].Score; y-- {
			links[y], links[y-1] = links[y-1], links[y]
		}
	}
	return links, nil
}

// hungarianMax solves the rectangular assignment problem maximizing total
// utility. It returns, for each row, the assigned column (or -1 when rows
// outnumber columns and the row stays unassigned). Implementation: the
// standard O(n·m²) shortest-augmenting-path algorithm with row/column
// potentials, run on costs = −utility.
func hungarianMax(util [][]float64) []int {
	n := len(util)
	if n == 0 {
		return nil
	}
	m := len(util[0])
	transposed := false
	if n > m {
		// The algorithm below assumes rows ≤ columns; transpose if not.
		t := make([][]float64, m)
		for j := range t {
			t[j] = make([]float64, n)
			for i := 0; i < n; i++ {
				t[j][i] = util[i][j]
			}
		}
		util, n, m = t, m, len(t[0])
		transposed = true
	}

	cost := func(i, j int) float64 { return -util[i][j] }

	// Potentials and matching, 1-indexed internally per the classic
	// formulation; p[j] = row matched to column j.
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)
	way := make([]int, m+1)
	for i := range p {
		p[i] = 0
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowOf := make([]int, n) // rowOf[i] = column assigned to row i
	for i := range rowOf {
		rowOf[i] = -1
	}
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			rowOf[p[j]-1] = j - 1
		}
	}
	if !transposed {
		return rowOf
	}
	// Undo the transpose: rowOf currently maps columns → rows.
	out := make([]int, m)
	for i := range out {
		out[i] = -1
	}
	for col, row := range rowOf {
		if row >= 0 {
			out[row] = col
		}
	}
	return out
}
