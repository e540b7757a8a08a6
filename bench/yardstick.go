package main

import (
	"encoding/json"
	"errors"
	"net"
	"sync"
	"time"
)

// The yardstick is a fixed reference load that measures how fast the
// machine is right now. This box is a few cores of a shared host: the same
// daemon at the same commit serves 13k req/s in one minute and 8.5k in the
// next, user-mode CPU time per request moving with it, and no aggregate
// over one run removes that (see README, "Measured steadiness"). So every
// repetition alternates short slices of the workload with short bursts of
// the yardstick, and each timed value of a slice is divided by the speed
// the yardstick saw right before and after it. What the benchmark reports
// is the daemon's speed relative to a fixed program that shares the
// machine with it, expressed at the speed of a reference machine on which
// that program does yardNominal round trips per second.
//
// The yardstick has the shape of a small request: two closed-loop
// connections over loopback TCP, a JSON request and reply, and a 64x64
// matrix-vector product in between, all inside the benchmark process. It
// uses only the standard library and nothing of the repo, so that no later
// PR moves it.

// yardNominal is the yardstick rate of the reference machine, in round
// trips per second. It is a unit, not a measurement: this box does 45-60k.
const yardNominal = 50000.0

const (
	// yardConns equals the workloads' connection count.
	yardConns = 2
	// yardOps round trips per connection make one burst (about 40 ms).
	yardOps = 1000
	yardDim = 64
)

type yardMsg struct {
	Op   string    `json:"op"`
	User string    `json:"user"`
	Text string    `json:"text"`
	V    []float64 `json:"v,omitempty"`
}

type yardConn struct {
	c   net.Conn
	enc *json.Encoder
	dec *json.Decoder
}

type yardstick struct {
	ln    net.Listener
	conns []yardConn
}

func newYardstick() (*yardstick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	y := &yardstick{ln: ln}
	go y.accept()
	for i := 0; i < yardConns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			y.close()
			return nil, err
		}
		y.conns = append(y.conns, yardConn{c: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c)})
	}
	return y, nil
}

func (y *yardstick) accept() {
	for {
		c, err := y.ln.Accept()
		if err != nil {
			return
		}
		go yardServe(c)
	}
}

// yardServe answers each request with a matrix-vector product folded into
// eight numbers; it ends when the client closes the connection.
func yardServe(c net.Conn) {
	defer c.Close()
	dec, enc := json.NewDecoder(c), json.NewEncoder(c)
	w := make([]float64, yardDim*yardDim)
	for i := range w {
		w[i] = float64(i%7) * 0.1
	}
	for {
		var m yardMsg
		if dec.Decode(&m) != nil {
			return
		}
		out := make([]float64, 8)
		for r := 0; r < yardDim; r++ {
			s := 0.0
			for k := 0; k < yardDim; k++ {
				s += w[r*yardDim+k] * float64(k+len(m.Text))
			}
			out[r%8] += s
		}
		m.V = out
		if enc.Encode(&m) != nil {
			return
		}
	}
}

// burst runs yardOps round trips on every connection at once and returns
// the machine's speed: the round-trip rate as a share of yardNominal.
func (y *yardstick) burst() (float64, error) {
	errs := make([]error, len(y.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range y.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			yc := &y.conns[i]
			for n := 0; n < yardOps; n++ {
				m := yardMsg{Op: "transmit", User: "u001", Text: "the server has a kernel bug in the network stack"}
				if errs[i] = yc.enc.Encode(&m); errs[i] != nil {
					return
				}
				if errs[i] = yc.dec.Decode(&m); errs[i] != nil {
					return
				}
				if len(m.V) != 8 {
					errs[i] = errors.New("bench: yardstick reply carries no result")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return float64(len(y.conns)*yardOps) / elapsed / yardNominal, nil
}

func (y *yardstick) close() {
	y.ln.Close()
	for _, yc := range y.conns {
		yc.c.Close()
	}
}
