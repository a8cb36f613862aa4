package breaker

import (
	"testing"
	"time"
)

// TestBreakerTransitions drives the breaker through its full state machine
// with an explicit clock: closed → open at threshold, refusing before the
// backoff elapses, half-open probe admission, reopen with doubled backoff
// on probe failure, and full reset on probe success.
func TestBreakerTransitions(t *testing.T) {
	b := New(3, 100*time.Millisecond, 1*time.Second)
	now := time.Unix(1000, 0)

	if ok, probe := b.Allow(now); !ok || probe {
		t.Fatalf("fresh breaker: allow = %v, %v; want true, false", ok, probe)
	}
	b.Failure(now)
	b.Failure(now)
	if b.State() != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	if opened := b.Failure(now); !opened {
		t.Fatal("third failure did not open the breaker")
	}
	if ok, _ := b.Allow(now.Add(50 * time.Millisecond)); ok {
		t.Fatal("breaker admitted a request before the backoff elapsed")
	}
	ok, probe := b.Allow(now.Add(150 * time.Millisecond))
	if !ok || !probe {
		t.Fatalf("after backoff: allow = %v, %v; want a probe", ok, probe)
	}
	if ok, _ := b.Allow(now.Add(150 * time.Millisecond)); ok {
		t.Fatal("second caller admitted while a probe is in flight")
	}

	// Probe fails: reopen with doubled backoff (200ms from the failure).
	if opened := b.Failure(now.Add(150 * time.Millisecond)); !opened {
		t.Fatal("failed probe did not reopen the breaker")
	}
	if ok, _ := b.Allow(now.Add(300 * time.Millisecond)); ok {
		t.Fatal("reopened breaker did not double its backoff")
	}
	ok, probe = b.Allow(now.Add(400 * time.Millisecond))
	if !ok || !probe {
		t.Fatalf("after doubled backoff: allow = %v, %v; want a probe", ok, probe)
	}

	// Probe succeeds: recovered, and the backoff resets to base.
	if recovered := b.Success(); !recovered {
		t.Fatal("closing probe not reported as a recovery")
	}
	if b.State() != Closed {
		t.Fatalf("state after recovery = %v, want closed", b.State())
	}
	for i := 0; i < 3; i++ {
		b.Failure(now)
	}
	if ok, _ := b.Allow(now.Add(150 * time.Millisecond)); !ok {
		t.Fatal("backoff did not reset to base after a recovery")
	}
}
