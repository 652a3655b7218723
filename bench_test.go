package gpurelay

// The benchmark harness regenerates every table and figure of the paper's
// evaluation as testing.B benchmarks. Each benchmark runs the relevant
// experiment matrix once per iteration (each iteration is seconds of real
// time, so b.N is typically 1) and reports the headline numbers as custom
// metrics; the full rendered tables are logged.
//
//	go test -bench=. -benchmem
//
// The benchmarked quantity is the wall-clock cost of the *simulation*; the
// paper's quantities (virtual-time delays, round trips, traffic, energy)
// are in the reported metrics and logs.

import (
	"fmt"
	"sync"
	"testing"

	"gpurelay/internal/experiments"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/obs"
	"gpurelay/internal/record"
)

// reportCollectorMetrics reports one cached record run's headline telemetry
// counters — the same series a /metrics endpoint serves — as benchmark
// metrics: blocking round trips, synchronization traffic, and the fraction
// of commits whose latency speculation hid.
func reportCollectorMetrics(b *testing.B, s *experiments.Suite, model string, v record.Variant, cond netsim.Condition) {
	b.Helper()
	res, err := s.Record(model, v, cond)
	if err != nil {
		b.Fatal(err)
	}
	snap := res.Stats.Obs
	b.ReportMetric(float64(snap.Counter(obs.MNetRTTs, obs.L("mode", "blocking"))), "blocking-rtts/op")
	b.ReportMetric(float64(snap.CounterTotal(obs.MSyncBytes))/1e6, "sync-MB/op")
	if commits := snap.CounterTotal(obs.MShimCommits); commits > 0 {
		b.ReportMetric(float64(snap.Counter(obs.MShimCommits, obs.L("kind", "async")))/
			float64(commits), "spec-hit-rate")
	}
}

// benchModels keeps benchmark iterations affordable while covering the
// small/large extremes; run cmd/grtbench for the full six-model matrix.
func benchModels() []*mlfw.Model {
	return []*mlfw.Model{mlfw.MNIST(), mlfw.AlexNet(), mlfw.VGG16()}
}

func BenchmarkFigure7WiFi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchModels()...)
		rows, err := s.Figure7(netsim.WiFi)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFigure7("Figure 7(a): WiFi", rows))
			b.ReportMetric(rows[0].Delays[record.Naive].Seconds(), "naive-mnist-s")
			b.ReportMetric(rows[0].Delays[record.OursMDS].Seconds(), "oursmds-mnist-s")
			reportCollectorMetrics(b, s, "MNIST", record.OursMDS, netsim.WiFi)
		}
	}
}

func BenchmarkFigure7Cellular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchModels()...)
		rows, err := s.Figure7(netsim.Cellular)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFigure7("Figure 7(b): cellular", rows))
			b.ReportMetric(rows[len(rows)-1].Delays[record.Naive].Seconds(), "naive-vgg16-s")
			b.ReportMetric(rows[len(rows)-1].Delays[record.OursMDS].Seconds(), "oursmds-vgg16-s")
			reportCollectorMetrics(b, s, "VGG16", record.OursMDS, netsim.Cellular)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchModels()...)
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderTable1(rows))
			b.ReportMetric(float64(rows[0].BlockingRTTs[record.OursM]), "mnist-oursm-rtts")
			b.ReportMetric(float64(rows[0].BlockingRTTs[record.OursMDS]), "mnist-oursmds-rtts")
			b.ReportMetric(rows[0].MemSyncMB[record.OursM], "mnist-oursm-MB")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchModels()...)
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderTable2(rows))
			b.ReportMetric(rows[0].NativeMS, "mnist-native-ms")
			b.ReportMetric(rows[0].ReplayMS, "mnist-replay-ms")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchModels()...)
		rows, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFigure8(rows))
			b.ReportMetric(float64(rows[0].Total), "mnist-spec-commits")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchModels()...)
		rows, err := s.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFigure9(rows))
			b.ReportMetric(rows[0].RecordOursJ, "mnist-record-J")
			b.ReportMetric(rows[0].ReplayJ, "mnist-replay-J")
		}
	}
}

func BenchmarkValidation73(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchModels()...)
		def, err := s.DeferralEfficacy(netsim.WiFi)
		if err != nil {
			b.Fatal(err)
		}
		spec, err := s.SpeculationEfficacy(netsim.WiFi)
		if err != nil {
			b.Fatal(err)
		}
		mis, err := s.MispredictionCost("MNIST", "VGG16")
		if err != nil {
			b.Fatal(err)
		}
		poll, err := s.PollingOffload()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderValidation(def, spec, mis, poll))
			b.ReportMetric(def[0].DelayReductionPct, "deferral-delay-red-%")
			b.ReportMetric(spec[0].CommitsSpeculatedPct, "commits-speculated-%")
			b.ReportMetric(mis[1].RecoveryTime.Seconds(), "vgg16-rollback-s")
		}
	}
}

// BenchmarkRecordMNIST measures the end-to-end simulation cost of one full
// record run — useful for tracking the simulator's own performance.
func BenchmarkRecordMNIST(b *testing.B) {
	client := NewClient("bench", MaliG71MP8)
	svc := NewService()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.Record(svc, MNIST(), RecordOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentRecord measures wall-clock record throughput at 1, 4,
// and 16 parallel MNIST sessions against one service — the scaling baseline
// for the concurrent recording service. Each parallel session is its own
// client with its own counters-only telemetry scope; the pool is sized to
// the parallelism so no session queues, and the shared history store is
// live, as in production. The records/s metric is the headline: future
// scaling PRs should move it up at high parallelism. The per-op traffic
// metrics come from the service's fleet collector, which aggregates every
// session scope.
func BenchmarkConcurrentRecord(b *testing.B) {
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			svc := NewServiceWith(ServiceConfig{Capacity: par, QueueLimit: 2 * par})
			clients := make([]*Client, par)
			for i := range clients {
				clients[i] = NewClient(fmt.Sprintf("bench-%d", i), MaliG71MP8)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for ci, c := range clients {
					wg.Add(1)
					go func(c *Client, id string) {
						defer wg.Done()
						scope := NewScopeWith(id, ScopeOptions{SpanCapacity: -1})
						if _, _, err := c.Record(svc, MNIST(), RecordOptions{Obs: scope}); err != nil {
							b.Error(err)
						}
					}(c, fmt.Sprintf("iter%d-sess%d", i, ci))
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(par)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			snap := svc.Metrics()
			ops := float64(snap.Counter(obs.MFleetSessions))
			if ops > 0 {
				b.ReportMetric(float64(snap.Counter(obs.MNetRTTs, obs.L("mode", "blocking")))/ops,
					"blocking-rtts/op")
				b.ReportMetric(float64(snap.CounterTotal(obs.MSyncBytes))/1e6/ops, "sync-MB/op")
			}
			if commits := snap.CounterTotal(obs.MShimCommits); commits > 0 {
				b.ReportMetric(float64(snap.Counter(obs.MShimCommits, obs.L("kind", "async")))/
					float64(commits), "spec-hit-rate")
			}
		})
	}
}

// BenchmarkReplayMNIST measures one in-TEE replay. /first is a session's
// first Run, which parses (range-decodes) every dump of the recording;
// /repeat is every Run after it, which only applies the parsed dumps and
// restores. Their ratio is the payoff of decoding once per session. Both
// replay zero weights on a zero input, so every convolution takes the
// interpreter's zero fast path; /weights repeats Run with real parameters
// on a nonzero input, where the shader interpreter's arithmetic dominates.
func BenchmarkReplayMNIST(b *testing.B) {
	client := NewClient("bench", MaliG71MP8)
	svc := NewService()
	rec, _, err := client.Record(svc, MNIST(), RecordOptions{})
	if err != nil {
		b.Fatal(err)
	}
	input := make([]float32, 28*28)
	open := func(b *testing.B) *ReplaySession {
		sess, err := client.NewReplaySession(rec)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.SetInput(input); err != nil {
			b.Fatal(err)
		}
		return sess
	}
	run := func(b *testing.B, sess *ReplaySession) {
		if _, err := sess.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sess := open(b)
			b.StartTimer()
			run(b, sess)
		}
	})
	b.Run("repeat", func(b *testing.B) {
		sess := open(b)
		run(b, sess)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, sess)
		}
	})
	b.Run("weights", func(b *testing.B) {
		sess := open(b)
		state := uint64(7)*2654435761 + 1 // the generator of mlfw's InitWeights(7)
		for _, r := range sess.WeightRegions() {
			w := make([]float32, r.Elems)
			for i := range w {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				w[i] = (float32(state%2048)/1024 - 1) / 8
			}
			if err := sess.SetWeights(r.Name, w); err != nil {
				b.Fatal(err)
			}
		}
		digit := make([]float32, 28*28)
		for i := range digit {
			digit[i] = float32(i*37%256) / 255
		}
		if err := sess.SetInput(digit); err != nil {
			b.Fatal(err)
		}
		run(b, sess)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, sess)
		}
	})
}
