package netsim

import (
	"testing"
	"time"
)

func TestTransferTimeLatencyOnly(t *testing.T) {
	l := Link{Latency: 10 * time.Millisecond}
	if got := l.TransferTime(1 << 20); got != 10*time.Millisecond {
		t.Fatalf("latency-only transfer = %v", got)
	}
}

func TestTransferTimeWithBandwidth(t *testing.T) {
	// 1 Mbps link, 1000 bytes = 8000 bits -> 8 ms serialization + 2 ms.
	l := Link{Latency: 2 * time.Millisecond, BandwidthBps: 1e6}
	got := l.TransferTime(1000)
	want := 10 * time.Millisecond
	if got < want-time.Microsecond || got > want+time.Microsecond {
		t.Fatalf("TransferTime = %v, want ~%v", got, want)
	}
}

func TestTransferTimeZeroBytes(t *testing.T) {
	l := Link{Latency: 5 * time.Millisecond, BandwidthBps: 1e6}
	if got := l.TransferTime(0); got != 5*time.Millisecond {
		t.Fatalf("zero-byte transfer = %v", got)
	}
}

func TestTransferTimeMonotoneInSize(t *testing.T) {
	l := Link{Latency: time.Millisecond, BandwidthBps: 1e8}
	prev := time.Duration(0)
	for _, size := range []int64{0, 100, 10000, 1000000} {
		d := l.TransferTime(size)
		if d < prev {
			t.Fatalf("TransferTime not monotone: %v after %v", d, prev)
		}
		prev = d
	}
}
