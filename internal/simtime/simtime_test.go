package simtime

import (
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	tm := Time(1500)
	if got := tm.Add(500); got != 2000 {
		t.Errorf("Add: got %d, want 2000", got)
	}
	if got := tm.Sub(Time(500)); got != 1000 {
		t.Errorf("Sub: got %d, want 1000", got)
	}
	if !tm.Before(2000) || tm.Before(1000) {
		t.Error("Before misbehaves")
	}
	if !tm.After(1000) || tm.After(2000) {
		t.Error("After misbehaves")
	}
}

func TestUnitConversions(t *testing.T) {
	tm := Time(2_500_000) // 2.5 ms
	if got := tm.Micros(); got != 2500 {
		t.Errorf("Micros: got %v, want 2500", got)
	}
	if got := tm.Millis(); got != 2.5 {
		t.Errorf("Millis: got %v, want 2.5", got)
	}
	if got := Time(Second).Seconds(); got != 1 {
		t.Errorf("Seconds: got %v, want 1", got)
	}
	if got := FromMicros(3.5); got != 3500 {
		t.Errorf("FromMicros: got %d, want 3500", got)
	}
	if got := FromSeconds(0.001); got != Duration(Millisecond) {
		t.Errorf("FromSeconds: got %d, want 1ms", got)
	}
}

func TestRateInterval(t *testing.T) {
	r := MPPS(1) // 1 packet per microsecond
	if got := r.Interval(); got != Duration(Microsecond) {
		t.Errorf("Interval: got %v, want 1us", got)
	}
	if got := PPS(0).Interval(); got != Duration(Never) {
		t.Errorf("zero rate interval: got %v, want Never", got)
	}
	if got := Rate(-5).Interval(); got != Duration(Never) {
		t.Errorf("negative rate interval: got %v, want Never", got)
	}
}

func TestRatePackets(t *testing.T) {
	r := MPPS(2)
	if got := r.Packets(Duration(Millisecond)); got != 2000 {
		t.Errorf("Packets: got %d, want 2000", got)
	}
	if got := r.Packets(-1); got != 0 {
		t.Errorf("Packets negative duration: got %d, want 0", got)
	}
	if got := r.PacketsF(Duration(500 * Microsecond)); got != 1000 {
		t.Errorf("PacketsF: got %v, want 1000", got)
	}
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min wrong")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max wrong")
	}
}

func TestStrings(t *testing.T) {
	if got := Time(1500).String(); got != "1.500us" {
		t.Errorf("Time.String: got %q", got)
	}
	if got := Never.String(); got != "never" {
		t.Errorf("Never.String: got %q", got)
	}
	if got := MPPS(1.2).String(); got != "1.200Mpps" {
		t.Errorf("Rate.String: got %q", got)
	}
	if got := PPS(500).String(); got != "500pps" {
		t.Errorf("Rate.String small: got %q", got)
	}
}

func TestRateIntervalRoundTrip(t *testing.T) {
	// Property: for the rates NFs run at (<= 10 Mpps, i.e. intervals of
	// 100ns or more), Interval() * rate ≈ 1 second. Above that the 1ns
	// quantization alone exceeds 1%.
	f := func(mpps uint8) bool {
		r := MPPS(float64(mpps%10) + 0.1)
		iv := r.Interval()
		total := float64(iv) * r.PPS()
		return total > 0.99*float64(Second) && total < 1.01*float64(Second)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(base int32, delta int32) bool {
		tm := Time(base)
		d := Duration(delta)
		return tm.Add(d).Sub(tm) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
