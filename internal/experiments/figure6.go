package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// HeatMap is one benchmark's input-space SDC sweep over two arguments with
// the remaining arguments held at their reference values.
type HeatMap struct {
	Bench      string
	XArg, YArg int // swept argument indices
	XVals      []float64
	YVals      []float64
	// SDC[y][x] is the measured SDC probability at that grid point
	// (normalized values are computed by Normalized).
	SDC [][]float64
	// RandomPercentile is the mean percentile standing of a random grid
	// point's SDC probability — the paper's "96th percentile in Hpccg vs
	// 2nd percentile in Pathfinder" characterization.
	RandomPercentile float64
}

// Normalized returns the SDC grid min-max normalized to [0,1] like the
// paper's color scale.
func (h *HeatMap) Normalized() [][]float64 {
	var all []float64
	for _, row := range h.SDC {
		all = append(all, row...)
	}
	norm := stats.Normalize(all)
	out := make([][]float64, len(h.SDC))
	k := 0
	for y := range h.SDC {
		out[y] = make([]float64, len(h.SDC[y]))
		for x := range h.SDC[y] {
			out[y][x] = norm[k]
			k++
		}
	}
	return out
}

// Figure6Result reproduces Figure 6: heat maps of the SDC probability over
// the input space, dense for Hpccg and sparse for Pathfinder.
type Figure6Result struct {
	Maps []*HeatMap
}

// figure6Sweeps selects which two arguments to sweep per benchmark: the two
// that most influence data content and workload shape.
var figure6Sweeps = map[string][2]int{
	"pathfinder": {0, 1}, // rows x cols: small grids are the sparse high-SDC pocket
	"hpccg":      {3, 4}, // maxIter x seed
}

// Figure6 sweeps the named benchmarks (paper: Hpccg and Pathfinder).
func Figure6(s *Suite, benches []string) (*Figure6Result, error) {
	res := &Figure6Result{}
	for _, name := range benches {
		hm, err := s.heatMap(name)
		if err != nil {
			return nil, err
		}
		res.Maps = append(res.Maps, hm)
	}
	return res, nil
}

func (s *Suite) heatMap(name string) (*HeatMap, error) {
	b := s.Bench(name)
	sweep, ok := figure6Sweeps[name]
	if !ok {
		sweep = [2]int{0, 1}
	}
	rng := s.rng("fig6", name)
	grid := s.Cfg.HeatmapGrid
	hm := &HeatMap{Bench: name, XArg: sweep[0], YArg: sweep[1]}

	axis := func(arg int) []float64 {
		a := b.Args[arg]
		vals := make([]float64, grid)
		for i := 0; i < grid; i++ {
			vals[i] = a.Clamp(a.Min + (a.Max-a.Min)*float64(i)/float64(grid-1))
		}
		return vals
	}
	hm.XVals = axis(sweep[0])
	hm.YVals = axis(sweep[1])

	var all []float64
	for _, yv := range hm.YVals {
		row := make([]float64, 0, grid)
		for _, xv := range hm.XVals {
			in := b.RefInput()
			in[sweep[0]] = xv
			in[sweep[1]] = yv
			sdc := 0.0
			if g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(in), b.MaxDyn, s.Cfg.CheckpointInterval); err == nil {
				c := campaign.OverallParallel(b.Prog, g, s.Cfg.HeatmapTrials, oneWorker(rng))
				sdc = c.SDCProbability()
			}
			row = append(row, sdc)
			all = append(all, sdc)
		}
		hm.SDC = append(hm.SDC, row)
	}

	// Mean percentile standing of the grid points: for a "dense" map most
	// points are near the top of the distribution; for a "sparse" map most
	// points are near the bottom relative to the maximum.
	maxSDC := stats.Max(all)
	var sum float64
	for _, v := range all {
		sum += v
	}
	mean := sum / float64(len(all))
	if maxSDC > 0 {
		hm.RandomPercentile = stats.PercentileOfValue(all, mean)
	}
	return hm, nil
}

// Render draws ASCII heat maps with a 0-9 intensity scale.
func (r *Figure6Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 6: Heat maps of SDC probability over the input space (0-9 intensity, min-max normalized)\n")
	sb.WriteString("Paper shape: Hpccg's map is dense (a random input is already near the top of the distribution);\n")
	sb.WriteString("Pathfinder's is sparse (high-SDC inputs are rare), which is where PEPPA-X wins big.\n\n")
	for _, hm := range r.Maps {
		fmt.Fprintf(&sb, "%s (x: arg%d, y: arg%d; mean input sits at the %.0fth percentile of the map)\n",
			hm.Bench, hm.XArg, hm.YArg, hm.RandomPercentile*100)
		norm := hm.Normalized()
		for y := len(norm) - 1; y >= 0; y-- {
			sb.WriteString("  ")
			for x := range norm[y] {
				level := int(norm[y][x] * 9.999)
				if level > 9 {
					level = 9
				}
				fmt.Fprintf(&sb, "%d", level)
			}
			sb.WriteString("\n")
		}
		var flat []float64
		for _, row := range hm.SDC {
			flat = append(flat, row...)
		}
		fmt.Fprintf(&sb, "  SDC range: %s .. %s\n\n", pct(stats.Min(flat)), pct(stats.Max(flat)))
	}
	return sb.String()
}
