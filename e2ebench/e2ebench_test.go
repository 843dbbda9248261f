package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTestRejectsBadAnswers(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// The expected cut points are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{117.563, 112.389, 114.659, 114.629, 114.596, 118.518, 118.987, 116.066, 122.933, 123.803}
	want := [3]float64{114.62075, 116.8145, 119.9735}
	got := quartiles(v)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("quartiles = %v, want %v", got, want)
		}
	}
	if m := median(v); math.Abs(m-116.8145) > 1e-9 {
		t.Fatalf("median = %v", m)
	}
}

// Every window attempts whole rounds, whichever caller ends it.
func TestClosedLoopRunsWholeRounds(t *testing.T) {
	const perRound = 7
	round := func(int) []op {
		ops := make([]op, perRound)
		for i := range ops {
			ops[i] = func(int) outcome {
				time.Sleep(100 * time.Microsecond)
				return outcome{kind: "query", answers: 1}
			}
		}
		return ops
	}
	lr := closedLoop(2, 20*time.Millisecond, 0, round)
	if n := len(lr.outs); n == 0 || n%perRound != 0 {
		t.Fatalf("%d operations, want a positive multiple of %d", n, perRound)
	}
	if lr := closedLoop(2, time.Hour, 3, round); len(lr.outs) != 3*perRound {
		t.Fatalf("%d operations in 3 rounds, want %d", len(lr.outs), 3*perRound)
	}
}

func TestSameShare(t *testing.T) {
	if !sameShare([]string{"157/2512", "150/2400", "166/2656"}) {
		t.Fatal("equal shares reported as different")
	}
	if sameShare([]string{"157/2512", "151/2400"}) {
		t.Fatal("different shares reported as equal")
	}
}
