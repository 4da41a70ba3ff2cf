package hw

import (
	"math/rand"
	"testing"

	"aisched/internal/machine"
	"aisched/internal/workload"
)

// BenchmarkSimulateTrace replays a fixed DefaultTrace-shaped graph in
// program order on one unit with a 4-entry window.
func BenchmarkSimulateTrace(b *testing.B) {
	g, err := workload.Trace(rand.New(rand.NewSource(1<<24)), workload.DefaultTrace())
	if err != nil {
		b.Fatal(err)
	}
	m, order := machine.SingleUnit(4), identity(g.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateTrace(g, m, order); err != nil {
			b.Fatal(err)
		}
	}
}
