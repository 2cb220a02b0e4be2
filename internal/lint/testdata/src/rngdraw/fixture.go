// Package fixture exercises the rngdraw analyzer. The test harness
// analyzes it as repro/internal/fault, where the draw-count discipline
// applies: branches that rejoin must consume the same number of
// seeded-RNG draws, draws must not hide behind short-circuit
// evaluation, and early-returning branches are exempt (the combinator
// pattern, documented to consume nothing).
package fixture

import "repro/internal/sim"

// Unbalanced draws once on one side and not the other — the stream
// position after the if depends on the branch taken.
func Unbalanced(rng *sim.RNG, bad bool) float64 {
	v := 0.0
	if bad { // want `branches of this if draw 1 vs 0 values from the seeded RNG`
		v = rng.Float64()
	}
	return v
}

// Balanced draws exactly once on both sides.
func Balanced(rng *sim.RNG, bad bool) float64 {
	if bad {
		return rng.Float64() * 0.5
	}
	_ = rng.Float64() // burn the draw to keep the stream aligned
	return 0.25
}

// BurnedElse shows the explicit burn idiom on a rejoining conditional.
func BurnedElse(rng *sim.RNG, hot bool) float64 {
	v := 0.0
	if hot {
		v = rng.Float64()
	} else {
		_ = rng.Float64() // burned: both branches consume one draw
	}
	return v
}

// EarlyReturn is the combinator pattern: the guard branch terminates,
// so it does not need to match the fallthrough side.
func EarlyReturn(rng *sim.RNG, skip bool) float64 {
	if skip {
		return 0
	}
	return rng.Float64()
}

// ShortCircuit hides a draw behind &&: it is consumed only when the
// left side passes.
func ShortCircuit(rng *sim.RNG, p float64) bool {
	return p > 0 && rng.Float64() < p // want `short-circuited side of && / \|\|`
}

// UnbalancedSwitch rejoins three ways with different draw counts.
func UnbalancedSwitch(rng *sim.RNG, mode int) float64 {
	v := 0.0
	switch mode { // want `cases of this switch draw 1 vs 2 values from the seeded RNG`
	case 0:
		v = rng.Float64()
	case 1:
		v = rng.Float64() + rng.Float64()
	default:
		v = rng.Float64()
	}
	return v
}

// PerItem draws once per element: the trip count governs the total,
// which structural counting treats as opaque, not a finding.
func PerItem(rng *sim.RNG, xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x * rng.Float64()
	}
	return total
}

// Escapes passes the generator to a callee on both sides; opaque, so
// no finding even though the counts are unknowable.
func Escapes(rng *sim.RNG, deep bool) float64 {
	if deep {
		return helper(rng) + helper(rng)
	}
	return helper(rng)
}

func helper(rng *sim.RNG) float64 { return rng.Float64() }

// BreakOut draws on a path that breaks out of the switch: break
// rejoins the other cases after the switch, so it is no early exit.
func BreakOut(rng *sim.RNG, mode int, early bool) float64 {
	v := 0.0
	switch mode { // want `cases of this switch draw 1 vs 0 values from the seeded RNG`
	case 0:
		if early {
			v = rng.Float64()
			break
		}
		v = 1
	case 1:
		v = 2
	}
	return v
}

// DrawThenFallthrough draws and falls into the next case, which the
// switch also enters directly without that draw.
func DrawThenFallthrough(rng *sim.RNG, mode int) float64 {
	v := 0.0
	switch mode { // want `cases of this switch draw 1 vs 0 values from the seeded RNG`
	case 0:
		v = rng.Float64()
		fallthrough
	case 1:
		v++
	}
	return v
}

// BalancedFallthrough draws once on every path: the case that falls
// through draws nothing before it.
func BalancedFallthrough(rng *sim.RNG, mode int) float64 {
	v := 0.0
	switch mode {
	case 0:
		v = 1
		fallthrough
	case 1:
		v += rng.Float64()
	default:
		v = rng.Float64()
	}
	return v
}

// BreakPath draws on the path that leaves the loop early: the loop is
// left with one draw more that way than when it runs out.
func BreakPath(rng *sim.RNG, xs []float64) float64 {
	v := 0.0
	for _, x := range xs { // want `paths out of this loop draw 0 vs 1 values from the seeded RNG`
		if x < 0 {
			v = rng.Float64()
			break
		}
	}
	return v
}

// ReturnInLoop draws on a path that returns from inside the loop; an
// early return is exempt there as anywhere.
func ReturnInLoop(rng *sim.RNG, xs []float64) float64 {
	for _, x := range xs {
		if x < 0 {
			return rng.Float64()
		}
	}
	return 0
}

// ContinueDraws draws before continue, so the draw repeats per
// iteration: the count is opaque, not a finding.
func ContinueDraws(rng *sim.RNG, xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		if x < 0 {
			total += rng.Float64()
			continue
		}
		total += x
	}
	return total
}

// EscapeThenUnbalanced hands the generator to a callee, which loses
// the count, and then draws on one branch only: the count restarts
// after the call, so the branches are still compared.
func EscapeThenUnbalanced(rng *sim.RNG, bad bool) float64 {
	v := helper(rng)
	if bad { // want `branches of this if draw 1 vs 0 values from the seeded RNG`
		v = rng.Float64()
	}
	return v
}

// UnbalancedInLoop draws once per item, which is no finding, and once
// more on one branch of each iteration, which is.
func UnbalancedInLoop(rng *sim.RNG, xs []bool) float64 {
	v := 0.0
	for _, x := range xs {
		v += rng.Float64()
		if x { // want `branches of this if draw 1 vs 0 values from the seeded RNG`
			v = rng.Float64()
		}
	}
	return v
}

// SelectDraws draws in one case of a select only: whichever channel is
// ready decides the stream position after it.
func SelectDraws(rng *sim.RNG, a, b chan int) float64 {
	v := 0.0
	select { // want `cases of this select draw 1 vs 0 values from the seeded RNG`
	case <-a:
		v = rng.Float64()
	case <-b:
	}
	return v
}
