package transport

import (
	"errors"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/wirebin"
)

// UDP-layer metric families. The listener is a single goroutine per
// socket, so plain counters suffice — no per-datagram label work.
var (
	metUDPDatagrams = metrics.NewCounter("dap_udp_datagrams_total",
		"UDP datagrams received on the binary ingest socket.")
	metUDPDropped = metrics.NewCounter("dap_udp_datagrams_dropped_total",
		"Datagrams inferred lost from gaps in per-sender frame sequences.")
	metUDPLastSeq = metrics.NewGauge("dap_udp_last_seq",
		"Highest frame sequence observed on the UDP socket (any sender).")
)

// udpReadBuffer is the kernel receive buffer requested for the ingest
// socket: bursts ride in the kernel queue instead of being dropped while
// the listener drains a batch into the engine.
const udpReadBuffer = 8 << 20

// maxUDPSources caps the per-sender sequence table; past it the table is
// reset rather than growing without bound under address spoofing. A reset
// forfeits gap detection for one frame per live sender, nothing more.
const maxUDPSources = 1 << 14

// A UDPListener ingests binary frames over UDP: one datagram is one
// frame, best-effort. Loss is observable, not recovered — senders stamp
// frames with an increasing sequence, the listener counts gaps per sender
// into dap_udp_datagrams_dropped_total. Frames address a tenant by name
// (empty = the default tenant) and feed Tenant.IngestBatch exactly like
// HTTP ingest, so durability and budget semantics are shared.
type UDPListener struct {
	s    *Server
	conn *net.UDPConn
	done chan struct{}
}

// ListenUDP opens the binary ingest socket on addr (e.g. ":9200" or
// "127.0.0.1:0") and starts its receive loop. The bound address is
// advertised on every tenant's config route as udp_addr. Close the
// listener before closing the server.
func (s *Server) ListenUDP(addr string) (*UDPListener, error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, err
	}
	// Best effort: some kernels clamp this below the request.
	_ = conn.SetReadBuffer(udpReadBuffer)
	l := &UDPListener{s: s, conn: conn, done: make(chan struct{})}
	bound := conn.LocalAddr().String()
	s.udpAddr.Store(&bound)
	go l.serve()
	return l, nil
}

// Addr returns the bound socket address.
func (l *UDPListener) Addr() net.Addr { return l.conn.LocalAddr() }

// Close stops the receive loop and closes the socket.
func (l *UDPListener) Close() error {
	err := l.conn.Close()
	<-l.done
	return err
}

// serve is the receive loop: one goroutine owns the socket, the decoder
// and the per-sender sequence table, so the datagram path runs without
// locks or allocation (steady state) until the engine call.
func (l *UDPListener) serve() {
	defer close(l.done)
	var dec wirebin.Decoder
	buf := make([]byte, 64<<10)
	lastSeq := make(map[netip.AddrPort]uint64)
	for {
		n, src, err := l.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		metUDPDatagrams.Inc()
		start := time.Now()
		fr, err := dec.Decode(buf[:n])
		if err != nil {
			frameUDP.rejected.Inc()
			continue
		}
		frameUDP.decodeDur.Observe(time.Since(start).Seconds())
		if fr.Seq > 0 {
			if len(lastSeq) >= maxUDPSources {
				clear(lastSeq)
			}
			if last := lastSeq[src]; fr.Seq > last {
				if last > 0 {
					metUDPDropped.Add(fr.Seq - last - 1)
				}
				lastSeq[src] = fr.Seq
			}
			metUDPLastSeq.Set(float64(fr.Seq))
		}
		// The recovery gate applies to UDP exactly as to HTTP — but here
		// best-effort means the frame is simply lost (and counted).
		if l.s.recovering.Load() {
			frameUDP.rejected.Inc()
			continue
		}
		name := fr.Tenant
		if name == "" {
			name = DefaultTenant
		}
		t, ok := l.s.regP.Load().Get(name)
		if !ok {
			frameUDP.rejected.Inc()
			continue
		}
		frameUDP.decoded.Inc()
		// Engine rejections (budget, validation, store-down) are dropped
		// reports on a best-effort wire; the per-tenant rejected counters
		// record them.
		_, _ = applyBatch(t, fr.Entries)
	}
}

// A UDPClient sends binary frames to a collector's UDP socket. Frames are
// stamped with an increasing sequence so the receiver can count losses.
// Not safe for concurrent use — give each sender goroutine its own client
// (each gets its own source port, hence its own gap accounting).
type UDPClient struct {
	conn   *net.UDPConn
	enc    wirebin.Encoder
	tenant string
	seq    atomic.Uint64
}

// DialUDP connects a frame sender to addr. tenant addresses a named
// tenant ("" = the collector's default tenant).
func DialUDP(addr, tenant string) (*UDPClient, error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, uaddr)
	if err != nil {
		return nil, err
	}
	if len(tenant) > wirebin.MaxTenantLen {
		conn.Close()
		return nil, wirebin.ErrFrameTooLarge
	}
	return &UDPClient{conn: conn, tenant: tenant}, nil
}

// Send encodes one frame and writes it as a single datagram, returning
// the stamped sequence. Frames above MaxDatagramBytes are refused —
// split the batch.
func (u *UDPClient) Send(entries []wirebin.Entry) (uint64, error) {
	seq := u.seq.Add(1)
	frame, err := u.enc.Encode(u.tenant, seq, entries)
	if err != nil {
		return 0, err
	}
	if len(frame) > wirebin.MaxDatagramBytes {
		return 0, wirebin.ErrFrameTooLarge
	}
	if _, err := u.conn.Write(frame); err != nil {
		return 0, err
	}
	return seq, nil
}

// Skip advances the sequence without sending, simulating n lost frames —
// the receiver's gap accounting counts them as dropped. Used by loss
// tests and loss-injection tooling.
func (u *UDPClient) Skip(n uint64) { u.seq.Add(n) }

// Close releases the socket.
func (u *UDPClient) Close() error { return u.conn.Close() }
