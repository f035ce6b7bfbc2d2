package limits

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

type clock struct {
	mu  sync.Mutex
	now time.Time
}

func newClock() *clock { return &clock{now: time.Unix(5000, 0)} }

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// outcomes sends one Allow per tenant listed and counts the decisions;
// an error other than ErrShed fails the test.
func outcomes(t *testing.T, l *Limiter, tenants ...string) (admitted, shed int) {
	t.Helper()
	for _, tenant := range tenants {
		switch err := l.Allow(tenant); {
		case err == nil:
			admitted++
		case errors.Is(err, ErrShed):
			shed++
		default:
			t.Fatalf("Allow(%q) = %v, want nil or ErrShed", tenant, err)
		}
	}
	return admitted, shed
}

func TestBurstThenShed(t *testing.T) {
	clk := newClock()
	l := New(Options{Default: Limit{Rate: 10, Burst: 3}, Now: clk.Now})
	if admitted, shed := outcomes(t, l, slices.Repeat([]string{"acme"}, 4)...); admitted != 3 || shed != 1 {
		t.Fatalf("outcomes = %d admitted / %d shed, want 3 / 1", admitted, shed)
	}
	err := l.Allow("acme")
	if !errors.Is(err, ErrShed) {
		t.Fatalf("request past burst = %v, want ErrShed", err)
	}
	if !strings.Contains(err.Error(), `"acme"`) {
		t.Fatalf("shed error %q does not name the tenant", err)
	}
}

func TestRefillOverTime(t *testing.T) {
	clk := newClock()
	l := New(Options{Default: Limit{Rate: 10, Burst: 2}, Now: clk.Now})
	if err := l.Allow("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Allow("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Allow("a"); !errors.Is(err, ErrShed) {
		t.Fatalf("bucket not empty after burst: %v", err)
	}
	// 100ms at 10/s refills exactly one token.
	clk.Advance(100 * time.Millisecond)
	if err := l.Allow("a"); err != nil {
		t.Fatalf("refilled token refused: %v", err)
	}
	if err := l.Allow("a"); !errors.Is(err, ErrShed) {
		t.Fatal("second request admitted on one refilled token")
	}
	// A long idle period refills only to the burst cap.
	clk.Advance(time.Hour)
	for i := 0; i < 2; i++ {
		if err := l.Allow("a"); err != nil {
			t.Fatalf("burst after idle, request %d: %v", i, err)
		}
	}
	if err := l.Allow("a"); !errors.Is(err, ErrShed) {
		t.Fatal("burst cap not enforced after idle refill")
	}
}

func TestTenantIsolation(t *testing.T) {
	clk := newClock()
	l := New(Options{Default: Limit{Rate: 1, Burst: 1}, Now: clk.Now})
	if err := l.Allow("noisy"); err != nil {
		t.Fatal(err)
	}
	if err := l.Allow("noisy"); !errors.Is(err, ErrShed) {
		t.Fatal("noisy tenant not shed")
	}
	// The quiet tenant's bucket is untouched by the noisy one.
	if err := l.Allow("quiet"); err != nil {
		t.Fatalf("quiet tenant shed by noisy tenant's traffic: %v", err)
	}
}

func TestPerTenantOverrides(t *testing.T) {
	clk := newClock()
	l := New(Options{
		Default:   Limit{Rate: 1, Burst: 1},
		PerTenant: map[string]Limit{"vip": {Rate: 100, Burst: 10}, "free": {Rate: 0}},
		Now:       clk.Now,
	})
	for i := 0; i < 10; i++ {
		if err := l.Allow("vip"); err != nil {
			t.Fatalf("vip request %d shed: %v", i, err)
		}
	}
	// Rate <= 0 override means unlimited, not zero.
	for i := 0; i < 50; i++ {
		if err := l.Allow("free"); err != nil {
			t.Fatalf("unlimited override shed: %v", err)
		}
	}
	if err := l.Allow("other"); err != nil {
		t.Fatal(err)
	}
	if err := l.Allow("other"); !errors.Is(err, ErrShed) {
		t.Fatal("default limit not applied to non-overridden tenant")
	}
}

func TestUnlimitedDefaultAdmitsEverything(t *testing.T) {
	l := New(Options{})
	if admitted, shed := outcomes(t, l, slices.Repeat([]string{"anyone"}, 100)...); admitted != 100 || shed != 0 {
		t.Fatalf("unlimited limiter: %d admitted / %d shed, want 100 / 0", admitted, shed)
	}
	// The unlimited path creates no bucket, so tenant names taken from
	// request input cannot grow the table.
	if len(l.buckets) != 0 {
		t.Fatalf("unlimited limiter created %d buckets", len(l.buckets))
	}
}

func TestNilLimiterAdmitsEverything(t *testing.T) {
	var l *Limiter
	if admitted, shed := outcomes(t, l, "x", "x", ""); admitted != 3 || shed != 0 {
		t.Fatalf("nil limiter: %d admitted / %d shed, want 3 / 0", admitted, shed)
	}
}

func TestEmptyTenantSharesAnonymousBucket(t *testing.T) {
	clk := newClock()
	l := New(Options{Default: Limit{Rate: 1, Burst: 1}, Now: clk.Now})
	if err := l.Allow(""); err != nil {
		t.Fatal(err)
	}
	if err := l.Allow(""); !errors.Is(err, ErrShed) {
		t.Fatal("anonymous traffic bypassed admission control")
	}
	// The untagged requests spent DefaultTenant's bucket, and no other.
	if admitted, shed := outcomes(t, l, DefaultTenant, "tagged"); admitted != 1 || shed != 1 {
		t.Fatalf("after two untagged: %d admitted / %d shed, want 1 / 1 (%s empty, tagged full)", admitted, shed, DefaultTenant)
	}
}

func TestBurstDefaultsToRate(t *testing.T) {
	clk := newClock()
	l := New(Options{Default: Limit{Rate: 5}, Now: clk.Now})
	for i := 0; i < 5; i++ {
		if err := l.Allow("t"); err != nil {
			t.Fatalf("request %d within default burst shed: %v", i, err)
		}
	}
	if err := l.Allow("t"); !errors.Is(err, ErrShed) {
		t.Fatal("burst did not default to Rate")
	}
	// Sub-1 rates still get a usable burst of 1.
	l2 := New(Options{Default: Limit{Rate: 0.5}, Now: clk.Now})
	if err := l2.Allow("t"); err != nil {
		t.Fatalf("rate<1 tenant has no burst: %v", err)
	}
}

func TestShedsTotal(t *testing.T) {
	clk := newClock()
	l := New(Options{Default: Limit{Rate: 1, Burst: 1}, Now: clk.Now})
	// a: 1 admitted 1 shed; b: 1 admitted 2 shed.
	if _, shed := outcomes(t, l, "a", "a", "b", "b", "b"); shed != 3 {
		t.Fatalf("shed %d, want 3", shed)
	}
}

func TestConcurrentAllow(t *testing.T) {
	clk := newClock()
	l := New(Options{Default: Limit{Rate: 1, Burst: 100}, Now: clk.Now})
	var wg sync.WaitGroup
	admitted := make([]int64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := l.Allow("shared"); err == nil {
					admitted[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, n := range admitted {
		total += n
	}
	// 400 concurrent requests against a 100-token bucket with no refill
	// (frozen clock): exactly 100 admitted, never more.
	if total != 100 {
		t.Fatalf("admitted %d of 400 against burst 100", total)
	}
}
