package experiments

import (
	"strings"
	"testing"

	"caar/internal/core"
	"caar/internal/timeslot"
)

func tinyRunner(t *testing.T) (*Runner, *strings.Builder) {
	t.Helper()
	var sb strings.Builder
	return &Runner{Out: &sb, Scale: 0.03}, &sb
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10"}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	ids := IDs()
	if len(ids) < len(want) {
		t.Fatalf("IDs() = %v", ids)
	}
	// Stable ordering: tables first, then figures numerically.
	if ids[0][0] != 'T' {
		t.Fatalf("tables should sort first: %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i][0] == ids[i-1][0] && num(ids[i]) < num(ids[i-1]) {
			t.Fatalf("IDs not numerically sorted: %v", ids)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	r, _ := tinyRunner(t)
	if err := r.Run("F99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunT1(t *testing.T) {
	r, sb := tinyRunner(t)
	if err := r.Run("T1"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"users", "follow edges", "ads", "post events"} {
		if !strings.Contains(out, want) {
			t.Fatalf("T1 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunF1Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	r, sb := tinyRunner(t)
	if err := r.Run("F1"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"RS", "IL", "CAP"} {
		if !strings.Contains(out, name) {
			t.Fatalf("F1 missing engine %s:\n%s", name, out)
		}
	}
}

func TestRunF6Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	r, sb := tinyRunner(t)
	if err := r.Run("F6"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"TFCA-morning", "CAP-morning", "TFCA-afternoon", "CAP-afternoon"} {
		if !strings.Contains(out, name) {
			t.Fatalf("F6 missing series %s:\n%s", name, out)
		}
	}
}

func TestRunF9Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	r, sb := tinyRunner(t)
	if err := r.Run("F9"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CAP (full)") {
		t.Fatalf("F9 output:\n%s", sb.String())
	}
}

// TestAllExperimentsTiny executes every registered experiment end-to-end at
// a tiny scale: the full harness path of each table/figure runs in the test
// suite, not only under `go test -bench`.
func TestAllExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var sb strings.Builder
			r := &Runner{Out: &sb, Scale: 0.02}
			if err := r.Run(id); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if sb.Len() == 0 {
				t.Fatalf("%s produced no output", id)
			}
		})
	}
}

func TestDriverReplayMatchesWorkload(t *testing.T) {
	cfg := scaledConfig(0.03)
	w := mustGenerate(cfg)
	res, err := runOnce("CAP", w, 16, 3, core.DefaultCAPOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != len(w.Events) {
		t.Fatalf("replayed %d of %d events", res.Events, len(w.Events))
	}
	if res.TopKCalls == 0 {
		t.Fatal("continuous mode made no top-k calls")
	}
	if len(res.Latency.d) != res.Events {
		t.Fatalf("%d latencies recorded for %d events", len(res.Latency.d), res.Events)
	}
}

func TestQualityEnvSnapshotsBothSlots(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	env, err := buildQualityEnv(qualityConfig(0.03), defaultScoring(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, sl := range []timeslot.Slot{timeslot.Morning, timeslot.Afternoon} {
		if _, ok := env.snapshots[sl]; !ok {
			t.Fatalf("no snapshot for slot %v (stream too short?)", sl)
		}
	}
	if len(env.sampleEvalAds(10)) == 0 {
		t.Fatal("no evaluable ads")
	}
}
