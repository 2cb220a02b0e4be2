package trace

import (
	"sort"

	"repro/internal/sim"
)

// This file tags trace frames as useful or useless to a client — the
// u_i of Eq. (1). The paper sweeps the useful fraction from 10% down to
// 2%; two taggers are provided:
//
//   - TagUniform marks each frame useful independently with probability
//     p, matching the paper's "x% of the broadcast frames are useful"
//     abstraction exactly.
//   - TagByOpenPorts derives usefulness from a concrete set of open UDP
//     ports, which is how the deployed HIDE system actually decides; use
//     OpenPortsForFraction to choose a port set whose traffic share
//     approximates a target fraction.

// TagUniform returns a usefulness vector where each frame is useful
// with probability p (deterministic for a given seed).
func TagUniform(tr *Trace, p float64, seed uint64) []bool {
	return TagUniformInto(make([]bool, 0, len(tr.Frames)), tr, p, seed)
}

// TagUniformInto is TagUniform appending into dst (normally dst[:0] of
// a reused buffer), growing it only when capacity runs out.
func TagUniformInto(dst []bool, tr *Trace, p float64, seed uint64) []bool {
	r := *sim.NewRNG(seed)
	for range tr.Frames {
		dst = append(dst, r.Float64() < p)
	}
	return dst
}

// TagByOpenPorts returns a usefulness vector where a frame is useful
// iff its destination port is in open.
func TagByOpenPorts(tr *Trace, open map[uint16]bool) []bool {
	u := make([]bool, len(tr.Frames))
	for i, f := range tr.Frames {
		u[i] = open[f.DstPort]
	}
	return u
}

// OpenPortsForFraction greedily selects a set of destination ports whose
// combined frame share best approximates target (in [0, 1]). Ports are
// considered from lowest traffic volume upward so small targets are
// reachable; ties break on port number for determinism.
func OpenPortsForFraction(tr *Trace, target float64) map[uint16]bool {
	open := make(map[uint16]bool)
	if len(tr.Frames) == 0 || target <= 0 {
		return open
	}
	hist := tr.PortHistogram()
	type pc struct {
		port  uint16
		count int
	}
	ports := make([]pc, 0, len(hist))
	for p, c := range hist {
		ports = append(ports, pc{p, c})
	}
	sort.Slice(ports, func(i, j int) bool {
		if ports[i].count != ports[j].count {
			return ports[i].count < ports[j].count
		}
		return ports[i].port < ports[j].port
	})
	total := len(tr.Frames)
	covered := 0
	for _, p := range ports {
		newShare := float64(covered+p.count) / float64(total)
		oldShare := float64(covered) / float64(total)
		// Stop if adding this port overshoots more than staying short.
		if newShare-target > target-oldShare {
			break
		}
		open[p.port] = true
		covered += p.count
		if float64(covered)/float64(total) >= target {
			break
		}
	}
	return open
}

// UsefulFraction returns the fraction of frames marked useful.
func UsefulFraction(u []bool) float64 {
	if len(u) == 0 {
		return 0
	}
	n := 0
	for _, b := range u {
		if b {
			n++
		}
	}
	return float64(n) / float64(len(u))
}
