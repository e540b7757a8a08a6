package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a typed connection to an edged daemon. It owns one
// connection and serializes calls over it; a Client is safe for use from
// multiple goroutines, with concurrent calls queueing on an internal
// mutex. Each call is one Write (the request frame) and, for a response
// under 4 KB, one Read.
//
// Transport-level failures (including a per-call deadline expiring
// mid-frame) leave the connection in an undefined framing state: the
// caller should Close the client and Dial a fresh one. Application-level
// failures arrive as Response.OK == false with the connection intact.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn // deadlines and Close; nil once closed
	framed *Conn    // every frame on conn
	// expired receives once from a call's context.AfterFunc callback
	// after it has expired the connection deadline, so the call can
	// clear that deadline after it rather than before.
	expired chan struct{}
}

// ErrClosed reports a call on a closed Client.
var ErrClosed = errors.New("rpc: client closed")

// Dial connects to an edged daemon at addr (see DialContext for the
// address forms).
func Dial(addr string) (*Client, error) {
	conn, err := DialContext(context.Background(), addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection in a Client. The Client takes
// ownership of conn.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, framed: NewConn(conn), expired: make(chan struct{}, 1)}
}

// Close shuts the connection down. Calls after Close fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// do issues one request and reads its response, under the client mutex.
// The exchange deadline is ctx's (a call without one waits forever), and
// the remaining budget is forwarded to the daemon as Request.DeadlineMs so
// admission control can shed the request instead of serving it late.
// Cancelling ctx mid-call unblocks the exchange by expiring the connection
// deadline. do leaves the connection without a deadline, also when ctx
// ends just as the exchange completes: a cancellation callback that has
// already begun is waited for, so its expired deadline cannot outlive the
// call and fail the next one.
func (c *Client) do(ctx context.Context, req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline, ok := ctx.Deadline()
	if ok {
		if remain := time.Until(deadline); remain > 0 {
			req.DeadlineMs = float64(remain) / float64(time.Millisecond)
		}
		if err := c.conn.SetDeadline(deadline); err != nil {
			return nil, fmt.Errorf("rpc: set deadline: %w", err)
		}
	}
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetDeadline(time.Now()) // c.mu, held by this call, keeps c.conn set
		c.expired <- struct{}{}
	})
	defer func() {
		if !stop() {
			<-c.expired
			ok = true
		}
		if ok {
			c.conn.SetDeadline(time.Time{})
		}
	}()
	if err := c.framed.Write(req); err != nil {
		return nil, err
	}
	return c.framed.ReadResponse()
}

// Transmit runs one message through the daemon's semantic pipeline.
func (c *Client) Transmit(user, text string) (*Response, error) {
	return c.TransmitContext(context.Background(), user, text)
}

// TransmitContext is Transmit with the deadline derived from ctx.
func (c *Client) TransmitContext(ctx context.Context, user, text string) (*Response, error) {
	return c.do(ctx, &Request{Op: OpTransmit, User: user, Text: text})
}

// Move attaches user to a radio cell. The returned Response carries the
// Handover outcome when the daemon is a mesh member.
func (c *Client) Move(user string, cell int) (*Response, error) {
	return c.do(context.Background(), &Request{Op: OpMove, User: user, Cell: cell})
}

// Stats fetches the daemon's counters.
func (c *Client) Stats() (*Stats, error) {
	resp, err := c.do(context.Background(), &Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("rpc: stats: %s", resp.Error)
	}
	if resp.Stats == nil {
		return nil, errors.New("rpc: stats response carried no stats")
	}
	return resp.Stats, nil
}

// Ping checks daemon liveness.
func (c *Client) Ping() error {
	return c.PingContext(context.Background())
}

// PingContext checks daemon liveness, honoring ctx for cancellation and
// deadline.
func (c *Client) PingContext(ctx context.Context) error {
	resp, err := c.do(ctx, &Request{Op: OpPing})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("rpc: ping: %s", resp.Error)
	}
	return nil
}

// Mesh calls: peer-to-peer ops.

// RemoteError is an answer the peer sent: the call crossed the wire and the
// peer refused it (Response.OK false), so the connection is intact and the
// peer alive. Every mesh call returns one for a refusal; any other error is
// a transport failure.
type RemoteError struct {
	Op  string // the refused op
	Msg string // the peer's Response.Error
}

func (e *RemoteError) Error() string { return fmt.Sprintf("rpc: %s: %s", e.Op, e.Msg) }

// mesh runs one exchange, turning a refusal into a *RemoteError.
func (c *Client) mesh(ctx context.Context, req *Request) (*Response, error) {
	resp, err := c.do(ctx, req)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, &RemoteError{Op: req.Op, Msg: resp.Error}
	}
	return resp, nil
}

// Join announces peer to the daemon and returns the daemon's current
// membership view.
func (c *Client) Join(ctx context.Context, peer PeerInfo) ([]PeerInfo, error) {
	resp, err := c.mesh(ctx, &Request{Op: OpJoin, Peer: &peer})
	if err != nil {
		return nil, err
	}
	return resp.Peers, nil
}

// Leave announces peer's graceful shutdown to the daemon.
func (c *Client) Leave(ctx context.Context, peer PeerInfo) error {
	_, err := c.mesh(ctx, &Request{Op: OpLeave, Peer: &peer})
	return err
}

// PeerStats fetches the daemon's own per-node counter snapshot.
func (c *Client) PeerStats(ctx context.Context) (*NodeStats, error) {
	resp, err := c.mesh(ctx, &Request{Op: OpPeerStats})
	if err != nil {
		return nil, err
	}
	if resp.Node == nil {
		return nil, errors.New("rpc: peer-stats response carried no node")
	}
	return resp.Node, nil
}

// FetchModel probes the daemon's cache for a model. A miss returns
// (nil, nil): the daemon answers with Peek semantics and never forwards
// to origin, so the caller decides when to pay the uplink.
func (c *Client) FetchModel(ctx context.Context, fetch FetchRequest) (*ModelPayload, error) {
	resp, err := c.mesh(ctx, &Request{Op: OpFetchModel, Fetch: &fetch})
	if err != nil {
		return nil, err
	}
	return resp.Model, nil
}

// HandoverPush ships a user's serving state to the daemon taking
// ownership.
func (c *Client) HandoverPush(ctx context.Context, h *HandoffPayload) error {
	_, err := c.mesh(ctx, &Request{Op: OpHandoverPush, Handoff: h})
	return err
}
