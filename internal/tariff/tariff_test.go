package tariff

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"nmdetect/internal/rng"
	"nmdetect/internal/timeseries"
)

func TestNewQuadratic(t *testing.T) {
	if _, err := NewQuadratic(1.5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewQuadratic(0.9); err == nil {
		t.Fatal("W < 1 accepted")
	}
}

func TestCommunityCost(t *testing.T) {
	q, _ := NewQuadratic(2)
	if got := q.communityCost(0.1, 10); math.Abs(got-10) > 1e-12 {
		t.Fatalf("communityCost = %v", got)
	}
	// Quadratic: doubling demand quadruples cost.
	if got := q.communityCost(0.1, 20); math.Abs(got-40) > 1e-12 {
		t.Fatalf("communityCost = %v", got)
	}
}

func TestCustomerCostBuyer(t *testing.T) {
	q, _ := NewQuadratic(2)
	// Buyer pays marginal price p·Σy per unit.
	got := q.CustomerCost(0.1, 10, 3)
	if math.Abs(got-3) > 1e-12 {
		t.Fatalf("buyer cost = %v, want 3", got)
	}
}

func TestCustomerCostSellerIsRewarded(t *testing.T) {
	q, _ := NewQuadratic(2)
	// Seller of 3 units when community buys 10 total: paid (p/W)·Σy per unit.
	got := q.CustomerCost(0.1, 10, -3)
	want := 0.1 / 2 * 10 * (-3) // -1.5: a reward
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("seller cost = %v, want %v", got, want)
	}
	if got >= 0 {
		t.Fatal("selling must be rewarded (negative cost)")
	}
}

func TestCustomerCostOversupplyClampsToZero(t *testing.T) {
	q, _ := NewQuadratic(2)
	// Community is a net seller: price collapses, nobody pays or earns.
	if got := q.CustomerCost(0.1, -5, 3); got != 0 {
		t.Fatalf("buyer cost under oversupply = %v, want 0", got)
	}
	if got := q.CustomerCost(0.1, -5, -3); got != 0 {
		t.Fatalf("seller cost under oversupply = %v, want 0", got)
	}
}

func TestSellBackDiscount(t *testing.T) {
	// Larger W means smaller reward for the same sale.
	q1, _ := NewQuadratic(1)
	q3, _ := NewQuadratic(3)
	r1 := -q1.CustomerCost(0.1, 10, -2)
	r3 := -q3.CustomerCost(0.1, 10, -2)
	if r3 >= r1 {
		t.Fatalf("W=3 reward %v not below W=1 reward %v", r3, r1)
	}
	if math.Abs(r1/r3-3) > 1e-9 {
		t.Fatalf("reward ratio = %v, want 3", r1/r3)
	}
}

func TestBuyerSellerAsymmetryProperty(t *testing.T) {
	// Property: for W > 1 a buyer of x pays more than a seller of x is paid
	// (at identical price and community total) — the utility's net-metering
	// support cost per Section 2.3.
	q, _ := NewQuadratic(1.8)
	s := rng.New(3)
	f := func() bool {
		price := s.Range(0.01, 0.5)
		total := s.Range(0.1, 100)
		x := s.Range(0.01, 10)
		pay := q.CustomerCost(price, total, x)
		earn := -q.CustomerCost(price, total, -x)
		return pay > earn
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleCost(t *testing.T) {
	q, _ := NewQuadratic(2)
	price := []float64{0.1, 0.2}
	total := []float64{10, 10}
	mine := []float64{1, -1}
	got, err := q.scheduleCost(price, total, mine)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1*10*1 + 0.2/2*10*(-1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("scheduleCost = %v, want %v", got, want)
	}
}

func TestScheduleCostMismatchErrors(t *testing.T) {
	q, _ := NewQuadratic(2)
	if _, err := q.scheduleCost([]float64{1}, []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatch did not error")
	}
}

func TestDefaultFormationValid(t *testing.T) {
	if err := DefaultFormation().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFormationValidateRejects(t *testing.T) {
	base := DefaultFormation()
	cases := []func(*Formation){
		func(f *Formation) { f.Kappa = -1 },
		func(f *Formation) { f.NoiseSigma = -0.1 },
		func(f *Formation) { f.NoisePhi = 1.0 },
		func(f *Formation) { f.Floor = -0.1 },
		func(f *Formation) { f.Base[5] = 0 },
	}
	for i, mod := range cases {
		f := base
		mod(&f)
		if err := f.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func flatSeries(v float64, n int) timeseries.Series {
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestPublishDeterministicWithoutNoise(t *testing.T) {
	f := DefaultFormation()
	load := flatSeries(1000, 24)
	ren := flatSeries(0, 24)
	a := mustPublish(t, f, load, ren, 500, true, nil)
	b := mustPublish(t, f, load, ren, 500, true, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("noise-free Publish not deterministic")
		}
	}
}

func TestPublishNetMeteringLowersPrice(t *testing.T) {
	f := DefaultFormation()
	load := flatSeries(2000, 24)
	ren := make(timeseries.Series, 24)
	for h := 10; h < 16; h++ {
		ren[h] = 1500 // midday solar
	}
	withNM := mustPublish(t, f, load, ren, 500, true, nil)
	without := mustPublish(t, f, load, ren, 500, false, nil)
	// Midday slots must be cheaper with net metering; night identical.
	for h := 10; h < 16; h++ {
		if withNM[h] >= without[h] {
			t.Fatalf("slot %d: NM price %v not below non-NM %v", h, withNM[h], without[h])
		}
	}
	for _, h := range []int{0, 3, 22} {
		if withNM[h] != without[h] {
			t.Fatalf("night slot %d differs: %v vs %v", h, withNM[h], without[h])
		}
	}
}

func TestPublishFloor(t *testing.T) {
	f := DefaultFormation()
	f.Floor = 0.07
	load := flatSeries(0, 24)
	p := mustPublish(t, f, load, flatSeries(0, 24), 500, true, nil)
	for h, v := range p {
		if v < f.Floor {
			t.Fatalf("slot %d price %v below floor", h, v)
		}
	}
}

func TestPublishNegativeNetDemandClamped(t *testing.T) {
	f := DefaultFormation()
	f.Kappa = 1 // large coupling would go negative without the clamp
	load := flatSeries(10, 24)
	ren := flatSeries(10000, 24)
	p := mustPublish(t, f, load, ren, 10, true, nil)
	for h, v := range p {
		// With net demand clamped at 0 the price equals the base.
		if math.Abs(v-f.Base[h%24]) > 1e-12 {
			t.Fatalf("slot %d price %v != base %v", h, v, f.Base[h%24])
		}
	}
}

func TestPublishNoiseDeterministicPerSeed(t *testing.T) {
	f := DefaultFormation()
	load := flatSeries(1000, 48)
	ren := flatSeries(100, 48)
	a := mustPublish(t, f, load, ren, 500, true, rng.New(5))
	b := mustPublish(t, f, load, ren, 500, true, rng.New(5))
	c := mustPublish(t, f, load, ren, 500, true, rng.New(6))
	diff := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different prices")
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical prices")
	}
}

func TestPublishErrors(t *testing.T) {
	f := DefaultFormation()
	if _, err := f.Publish(flatSeries(1, 24), flatSeries(0, 24), 0, true, nil); err == nil {
		t.Error("zero customers did not error")
	}
	if _, err := f.Publish(flatSeries(1, 24), flatSeries(0, 12), 10, true, nil); err == nil {
		t.Error("misaligned renewable did not error")
	}
}

// mustPublish unwraps Publish for statically valid inputs.
func mustPublish(t *testing.T, f Formation, load, ren timeseries.Series, n int, nm bool, src *rng.Source) timeseries.Series {
	t.Helper()
	p, err := f.Publish(load, ren, n, nm, src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPublishMonotoneInDemandProperty(t *testing.T) {
	// Property: without noise, raising the load forecast at a slot can only
	// raise (never lower) the published price at that slot.
	f := DefaultFormation()
	f.NoiseSigma = 0
	s := rng.New(31)
	for trial := 0; trial < 200; trial++ {
		load := make(timeseries.Series, 24)
		ren := make(timeseries.Series, 24)
		for h := range load {
			load[h] = s.Range(0, 500)
			ren[h] = s.Range(0, 200)
		}
		base := mustPublish(t, f, load, ren, 100, true, nil)
		bumped := load.Clone()
		slot := s.Intn(24)
		bumped[slot] += s.Range(0, 300)
		after := mustPublish(t, f, bumped, ren, 100, true, nil)
		if after[slot] < base[slot]-1e-12 {
			t.Fatalf("trial %d: price fell from %v to %v after demand bump", trial, base[slot], after[slot])
		}
		// Other slots are untouched (per-slot formation).
		for h := range base {
			if h != slot && after[h] != base[h] {
				t.Fatalf("trial %d: slot %d changed without a demand change", trial, h)
			}
		}
	}
}

func TestHistory(t *testing.T) {
	h := History{}
	if err := h.Validate(); err == nil {
		t.Fatal("empty history accepted")
	}
	for i := 0; i < 10; i++ {
		h.Append(float64(i), float64(i*2), float64(i*3))
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 10 {
		t.Fatalf("Len = %d", h.Len())
	}
	tail := h.Tail(3)
	if tail.Len() != 3 || tail.Price[0] != 7 || tail.Demand[2] != 27 {
		t.Fatalf("Tail = %+v", tail)
	}
	// Tail longer than history returns everything.
	if h.Tail(99).Len() != 10 {
		t.Fatal("oversized Tail wrong")
	}
	// Misaligned history is rejected.
	bad := History{Price: timeseries.Series{1}, Renewable: timeseries.Series{1, 2}, Demand: timeseries.Series{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("misaligned history accepted")
	}
}

// The cost aggregates below are test-only: the tests of this file pin their
// arithmetic against CustomerCost.

// communityCost returns the total monetary cost pₕ·(Σy)² of the community's
// net purchase at one slot. Negative total trading (community is a net
// seller) still yields a non-negative quantity under the quadratic form; the
// utility's books for that case are settled per customer.
func (q Quadratic) communityCost(price, totalTrading float64) float64 {
	return price * totalTrading * totalTrading
}

// scheduleCost returns the customer's total cost over a horizon given the
// guideline price vector, the community trading totals and the customer's own
// trading vector. Mismatched lengths are an error.
func (q Quadratic) scheduleCost(price, totalTrading, customerTrading []float64) (float64, error) {
	if len(price) != len(totalTrading) || len(price) != len(customerTrading) {
		return 0, fmt.Errorf("tariff: scheduleCost length mismatch %d/%d/%d",
			len(price), len(totalTrading), len(customerTrading))
	}
	total := 0.0
	for h := range price {
		total += q.CustomerCost(price[h], totalTrading[h], customerTrading[h])
	}
	return total, nil
}
