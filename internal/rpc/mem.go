package rpc

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
)

// memPrefix marks an address of the in-memory transport: "mem:<name>"
// names a listener in this process's registry instead of a TCP endpoint.
// The address is the only selector — Listen and DialContext take it
// wherever a host:port goes (a daemon's -addr, a mesh member list), so
// several mesh members can run in one process with no sockets and no
// option saying so. Connections are net.Pipe pairs: synchronous, with
// deadlines honoured, carrying exactly the frames TCP would.
const memPrefix = "mem:"

// memListeners is the process-local registry behind mem: addresses; auto
// numbers the names Listen("mem:") hands out.
var memListeners = struct {
	sync.Mutex
	byName map[string]*memListener
	auto   int
}{byName: make(map[string]*memListener)}

// memListener hands the server ends of dialed pipes to Accept.
type memListener struct {
	name  string
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// memAddr is a mem: listener's address; String round-trips through
// DialContext.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return memPrefix + string(a) }

// Listen opens a listener on addr: a "mem:<name>" address registers an
// in-memory listener under that name (an error while the name is taken;
// a bare "mem:" picks a free one, as port 0 does — read it back from
// Addr), anything else is a TCP address.
func Listen(addr string) (net.Listener, error) {
	name, ok := strings.CutPrefix(addr, memPrefix)
	if !ok {
		return net.Listen("tcp", addr)
	}
	memListeners.Lock()
	defer memListeners.Unlock()
	for name == "" {
		memListeners.auto++
		if auto := strconv.Itoa(memListeners.auto); memListeners.byName[auto] == nil {
			name = auto
		}
	}
	if _, taken := memListeners.byName[name]; taken {
		return nil, fmt.Errorf("rpc: listen %s: address already in use", addr)
	}
	l := &memListener{name: name, conns: make(chan net.Conn), done: make(chan struct{})}
	memListeners.byName[name] = l
	return l, nil
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close stops accepting and frees the name; established connections stay
// open, as with a TCP listener.
func (l *memListener) Close() error {
	l.once.Do(func() {
		memListeners.Lock()
		delete(memListeners.byName, l.name)
		memListeners.Unlock()
		close(l.done)
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.name) }

// DialContext connects to addr: a "mem:<name>" address reaches the
// in-memory listener registered under that name in this process, anything
// else is dialed over TCP.
func DialContext(ctx context.Context, addr string) (net.Conn, error) {
	name, ok := strings.CutPrefix(addr, memPrefix)
	if !ok {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	refused := fmt.Errorf("rpc: dial %s: connection refused", addr)
	memListeners.Lock()
	l := memListeners.byName[name]
	memListeners.Unlock()
	if l == nil {
		return nil, refused
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, refused
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
