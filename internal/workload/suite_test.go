package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestGenerateSuiteBasics(t *testing.T) {
	arrivals, err := GenerateSuite(SuiteSpec{
		Mix:              DefaultMix(2048),
		MeanInterarrival: time.Minute,
		Horizon:          time.Hour,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Poisson with 1-minute mean over an hour: expect ~60, allow wide
	// slack.
	if len(arrivals) < 30 || len(arrivals) > 110 {
		t.Fatalf("got %d arrivals, want ~60", len(arrivals))
	}
	last := time.Duration(-1)
	for i, a := range arrivals {
		if a.At <= last {
			t.Fatalf("arrival %d not strictly increasing (%v after %v)", i, a.At, last)
		}
		last = a.At
		if a.At >= time.Hour {
			t.Fatalf("arrival %d beyond horizon: %v", i, a.At)
		}
		if err := a.Spec.Validate(); err != nil {
			t.Fatalf("arrival %d invalid: %v", i, err)
		}
	}
}

func TestGenerateSuiteDeterministic(t *testing.T) {
	spec := SuiteSpec{Mix: DefaultMix(1024), Horizon: 30 * time.Minute, Seed: 9}
	a, err := GenerateSuite(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSuite(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Spec.Name != b[i].Spec.Name || a[i].Spec.InputMB != b[i].Spec.InputMB {
			t.Fatalf("arrival %d differs between runs", i)
		}
	}
	other, err := GenerateSuite(SuiteSpec{Mix: DefaultMix(1024), Horizon: 30 * time.Minute, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	same := len(other) == len(a)
	if same {
		for i := range a {
			if a[i].At != other[i].At {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestGenerateSuiteJitterBounds(t *testing.T) {
	mix := []WeightedJob{{Spec: Sort().WithInputMB(1000), Weight: 1}}
	arrivals, err := GenerateSuite(SuiteSpec{
		Mix:              mix,
		MeanInterarrival: 30 * time.Second,
		SizeJitter:       0.2,
		Horizon:          2 * time.Hour,
		Seed:             4,
	})
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for _, a := range arrivals {
		if a.Spec.InputMB < 800-1e-9 || a.Spec.InputMB > 1200+1e-9 {
			t.Fatalf("jittered size %v outside ±20%% of 1000", a.Spec.InputMB)
		}
		if math.Abs(a.Spec.InputMB-1000) > 1 {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter produced no variation")
	}
}

func TestGenerateSuiteWeights(t *testing.T) {
	mix := []WeightedJob{
		{Spec: Sort(), Weight: 9},
		{Spec: PiEst(), Weight: 1},
	}
	arrivals, err := GenerateSuite(SuiteSpec{
		Mix:              mix,
		MeanInterarrival: 15 * time.Second,
		Horizon:          4 * time.Hour,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sorts := 0
	for _, a := range arrivals {
		if a.Spec.Name == "Sort" {
			sorts++
		}
	}
	frac := float64(sorts) / float64(len(arrivals))
	if frac < 0.8 || frac > 0.98 {
		t.Errorf("Sort fraction %v, want ~0.9 for 9:1 weights", frac)
	}
}

func TestGenerateSuiteValidation(t *testing.T) {
	if _, err := GenerateSuite(SuiteSpec{Horizon: time.Hour}); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := GenerateSuite(SuiteSpec{Mix: DefaultMix(1024)}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := GenerateSuite(SuiteSpec{
		Mix:     []WeightedJob{{Spec: Sort(), Weight: -1}},
		Horizon: time.Hour,
	}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := GenerateSuite(SuiteSpec{
		Mix:     []WeightedJob{{Spec: Sort(), Weight: 0}},
		Horizon: time.Hour,
	}); err == nil {
		t.Error("zero total weight accepted")
	}
}

func TestScheduleSuiteDelivers(t *testing.T) {
	engine := sim.New(obs.Scope{})
	var submitted []Arrival
	arrivals, err := ScheduleSuite(SuiteSpec{
		Mix:              DefaultMix(512),
		MeanInterarrival: time.Minute,
		Horizon:          20 * time.Minute,
		Seed:             6,
	}, func(d time.Duration, fn func()) { engine.After(d, fn) }, func(a Arrival) error {
		submitted = append(submitted, a)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run()
	if len(submitted) != len(arrivals) {
		t.Fatalf("submitted %d of %d arrivals", len(submitted), len(arrivals))
	}
	for i := range submitted {
		if submitted[i].At != arrivals[i].At {
			t.Errorf("arrival %d delivered out of order", i)
		}
	}
}
