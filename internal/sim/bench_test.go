package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduleStep measures the engine's core cycle: schedule one
// event and dispatch it. This is the per-event cost every simulated
// frame, beacon, and wakelock expiry pays.
func BenchmarkScheduleStep(b *testing.B) {
	eng := New()
	fn := func(time.Duration) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.MustScheduleAfter(time.Microsecond, fn)
		eng.Step()
	}
}

// BenchmarkScheduleCancel measures the schedule→cancel→reschedule path
// the stations exercise on every arrival (wakelock-expiry rearming).
func BenchmarkScheduleCancel(b *testing.B) {
	eng := New()
	fn := func(time.Duration) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := eng.MustScheduleAfter(time.Millisecond, fn)
		h.Cancel()
		eng.MustScheduleAfter(time.Microsecond, fn)
		eng.Step()
	}
}

// BenchmarkScheduleBurst measures queue behaviour under a burst of 64
// pending events, the shape a dense DTIM flush produces.
func BenchmarkScheduleBurst(b *testing.B) {
	eng := New()
	fn := func(time.Duration) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 64; k++ {
			eng.MustScheduleAfter(time.Duration(k)*time.Microsecond, fn)
		}
		for eng.Step() {
		}
	}
}
