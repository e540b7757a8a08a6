// Package netsim models the network substrate between edge servers and
// the cloud origin: point-to-point links with propagation latency and
// finite bandwidth. Transfer times are computed analytically in virtual
// time, keeping experiments deterministic.
package netsim

import "time"

// Link is a directed point-to-point connection.
type Link struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// BandwidthBps is the link throughput in bits per second; values <= 0
	// mean infinite bandwidth (latency-only links).
	BandwidthBps float64
}

// TransferTime returns the virtual time to move size bytes across the
// link: propagation latency plus serialization time.
func (l Link) TransferTime(size int64) time.Duration {
	d := l.Latency
	if l.BandwidthBps > 0 && size > 0 {
		seconds := float64(size*8) / l.BandwidthBps
		d += time.Duration(seconds * float64(time.Second))
	}
	return d
}
