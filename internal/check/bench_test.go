package check

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkOracleWorkers measures the 90-cell differential-oracle grid
// (truncated to the test duration) at 1, 2, and 4 workers and at
// GOMAXPROCS, the scaling half of the crosscheck acceptance story. On
// a single-CPU host the variants collapse to sequential throughput.
func BenchmarkOracleWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 0} {
		name := "workers=gomaxprocs"
		if workers > 0 {
			name = fmt.Sprintf("workers=%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			m := DefaultMatrix()
			m.Config.Duration = testOracleDuration
			m.Config.Workers = workers
			for i := 0; i < b.N; i++ {
				res, err := m.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChaosCell measures one fault scenario of the chaos grid —
// beacon-drops over both chaos traces with the full invariant, miss
// budget, convergence and same-seed determinism checks.
func BenchmarkChaosCell(b *testing.B) {
	scs, err := ScenariosByName("beacon-drops")
	if err != nil {
		b.Fatal(err)
	}
	cfg := ChaosConfig{Scenarios: scs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunChaosGrid(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := ChaosErr(res); err != nil {
			b.Fatal(err)
		}
	}
}
