package online

import (
	"context"
	"testing"
	"time"

	"flex/internal/placement"
)

// BenchmarkOnlinePlacement is the ISSUE 9 acceptance benchmark (run it
// with go test -run '^$' -bench OnlinePlacement -benchmem; flexbench's
// admission-churn and placement-sweep are the tracked numbers).
//
//   - admit: hot-path decision throughput on the full 9.6MW paper room,
//     reported as decisions/s. The benchmark FAILS below 1000
//     decisions/s, and -benchmem must show 0 allocs/op.
//   - stranded-gap: placement quality on the §V-C emulation trace — the
//     online policy's stranded-power fraction minus the FlexOffline
//     optimum, reported in percentage points as gap-pp. The benchmark
//     FAILS above 10pp.
func BenchmarkOnlinePlacement(b *testing.B) {
	b.Run("admit", benchAdmit)
	b.Run("stranded-gap", benchStrandedGap)
}

func benchAdmit(b *testing.B) {
	room := placement.PaperRoom()
	adm, err := NewAdmitter(room, Config{Seed: 1, ResolveEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	trace := emuTrace(b, room, 1)
	// Base load: commit half the trace so decisions run against a
	// realistically loaded room, then churn the remainder.
	for _, d := range trace[:len(trace)/2] {
		adm.Admit(d)
	}
	churn := trace[len(trace)/2:]
	b.ReportAllocs()
	b.ResetTimer()
	decisions := 0
	for i := 0; i < b.N; i++ {
		d := churn[i%len(churn)]
		_, ok := adm.Admit(d)
		decisions++
		if ok {
			adm.Remove(d.ID)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		dps := float64(decisions) / sec
		b.ReportMetric(dps, "decisions/s")
		if dps < 1000 {
			b.Fatalf("online admission %.0f decisions/s, acceptance floor is 1000/s", dps)
		}
	}
}

func benchStrandedGap(b *testing.B) {
	// The gap is a quality metric, not a latency: measure it once per
	// invocation (each measurement runs FlexOffline's exact ILP) and
	// report it alongside the timing records.
	room := placement.EmulationRoom()
	trace := emuTrace(b, room, 42)
	cfg := Config{Seed: 42, SyncResolve: true, ResolveEvery: 8, ResolveNodes: 200, ResolveBudget: 5 * time.Second}
	on, err := Online{Config: cfg}.Place(context.Background(), room, trace)
	if err != nil {
		b.Fatal(err)
	}
	if err := on.Validate(); err != nil {
		b.Fatalf("unsafe online placement: %v", err)
	}
	off, err := placement.FlexOfflineOracle().Place(context.Background(), placement.EmulationRoom(), trace)
	if err != nil {
		b.Fatal(err)
	}
	gap := on.StrandedFraction() - off.StrandedFraction()
	for i := 0; i < b.N; i++ {
		// Timing is not the point of this sub-benchmark.
	}
	b.ReportMetric(gap*100, "gap-pp")
	b.ReportMetric(on.StrandedFraction()*100, "online-stranded-pp")
	b.ReportMetric(off.StrandedFraction()*100, "offline-stranded-pp")
	if gap > 0.10 {
		b.Fatalf("online stranded fraction %.4f exceeds the FlexOffline optimum %.4f by more than 10pp",
			on.StrandedFraction(), off.StrandedFraction())
	}
}
