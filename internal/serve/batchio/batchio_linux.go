//go:build linux && (amd64 || arm64)

package batchio

import (
	"context"
	"net"
	"net/netip"
	"runtime"
	"syscall"
	"unsafe"
)

// soReusePort is SO_REUSEPORT, which the syscall package does not
// export. Its value is uniform across Linux architectures.
const soReusePort = 0xf

// ReusePortAvailable reports whether this platform supports binding
// several sockets to one address with SO_REUSEPORT.
const ReusePortAvailable = true

// ListenUDPReusePort binds a UDP socket with SO_REUSEPORT set before
// bind, so several shards can own the same port and the kernel hashes
// flows across them.
func ListenUDPReusePort(addr string) (*net.UDPConn, error) {
	lc := reusePortConfig()
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	return pc.(*net.UDPConn), nil
}

func reusePortConfig() net.ListenConfig {
	return net.ListenConfig{Control: func(_, _ string, rc syscall.RawConn) error {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		}); err != nil {
			return err
		}
		return serr
	}}
}

// Wire-format structs for recvmmsg/sendmmsg on 64-bit Linux. The
// syscall package has no mmsg support, so the layouts are spelled out
// here; they match <bits/socket.h> for amd64 and arm64.
type iovec struct {
	base *byte
	len  uint64
}

type msghdr struct {
	name       *byte
	namelen    uint32
	_          [4]byte
	iov        *iovec
	iovlen     uint64
	control    *byte
	controllen uint64
	flags      int32
	_          [4]byte
}

type mmsghdr struct {
	hdr msghdr
	len uint32
	_   [4]byte
}

// sockaddrSize is sizeof(struct sockaddr_storage).
const sockaddrSize = 128

// mmsgBatch moves up to len(hdrs) datagrams per syscall in each
// direction. All storage — packet slots, sockaddr slots, iovecs,
// message headers — is allocated once at listener start and reused for
// every batch; response sockaddrs are the received ones echoed back
// untouched, so the write path never re-encodes an address.
type mmsgBatch struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	bufs  [][]byte
	names [][sockaddrSize]byte
	iovs  []iovec
	hdrs  []mmsghdr
	siovs []iovec
	shdrs []mmsghdr
	n     int

	// recv and send are the callbacks handed to the runtime poller,
	// built once: a closure made per call escapes into the RawConn
	// interface and takes its captured results to the heap with it.
	// They talk to Read and sendmmsg through the fields below; each
	// direction has its own, so a read and a write may run on two
	// goroutines.
	recv, send           func(fd uintptr) bool
	sending              []mmsghdr
	received, sent       uintptr
	recvErrno, sendErrno syscall.Errno
}

func newMmsgBatch(conn *net.UDPConn, size int) (*mmsgBatch, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &mmsgBatch{
		conn:  conn,
		rc:    rc,
		bufs:  make([][]byte, size),
		names: make([][sockaddrSize]byte, size),
		iovs:  make([]iovec, size),
		hdrs:  make([]mmsghdr, size),
		siovs: make([]iovec, size),
		shdrs: make([]mmsghdr, size),
	}
	for i := range b.bufs {
		b.bufs[i] = make([]byte, MaxDatagram)
		b.iovs[i] = iovec{base: &b.bufs[i][0], len: MaxDatagram}
		b.hdrs[i].hdr = msghdr{
			name:    &b.names[i][0],
			namelen: sockaddrSize,
			iov:     &b.iovs[i],
			iovlen:  1,
		}
	}
	b.recv = func(fd uintptr) bool {
		b.received, _, b.recvErrno = syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&b.hdrs[0])), uintptr(len(b.hdrs)),
			syscall.MSG_DONTWAIT, 0, 0)
		return b.recvErrno != syscall.EAGAIN
	}
	b.send = func(fd uintptr) bool {
		b.sent, _, b.sendErrno = syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&b.sending[0])), uintptr(len(b.sending)),
			syscall.MSG_DONTWAIT, 0, 0)
		return b.sendErrno != syscall.EAGAIN
	}
	return b, nil
}

// Read performs one recvmmsg, using the runtime poller to wait for
// readability so deadlines (graceful shutdown wakes blocked readers by
// setting one in the past) and Close behave exactly like ReadFromUDP.
func (b *mmsgBatch) Read() (int, error) {
	for i := range b.hdrs {
		b.hdrs[i].hdr.namelen = sockaddrSize
		b.hdrs[i].hdr.flags = 0
		b.hdrs[i].len = 0
	}
	err := b.rc.Read(b.recv)
	runtime.KeepAlive(b)
	if err != nil {
		return 0, err
	}
	if b.recvErrno != 0 {
		return 0, b.recvErrno
	}
	b.n = int(b.received)
	return b.n, nil
}

func (b *mmsgBatch) Packet(i int) []byte { return b.bufs[i][:b.hdrs[i].len] }

// Addr decodes slot i's source from its sockaddr slot.
func (b *mmsgBatch) Addr(i int) netip.AddrPort {
	name := &b.names[i]
	family := uint16(name[0]) | uint16(name[1])<<8
	port := uint16(name[2])<<8 | uint16(name[3])
	switch family {
	case syscall.AF_INET:
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte(name[4:8])), port)
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16([16]byte(name[8:24])).Unmap(), port)
	}
	return netip.AddrPort{}
}

// Write sends the non-nil responses with as few sendmmsg calls as the
// kernel allows (partial sends continue where they left off).
func (b *mmsgBatch) Write(resps [][]byte) error {
	m := 0
	for i := 0; i < b.n && i < len(resps); i++ {
		r := resps[i]
		if len(r) == 0 {
			continue
		}
		b.siovs[m] = iovec{base: &r[0], len: uint64(len(r))}
		b.shdrs[m].hdr = msghdr{
			name:    &b.names[i][0],
			namelen: b.hdrs[i].hdr.namelen,
			iov:     &b.siovs[m],
			iovlen:  1,
		}
		b.shdrs[m].len = 0
		m++
	}
	if err := b.sendmmsg(b.shdrs[:m], resps); err != nil {
		return err
	}
	return nil
}

// sendmmsg pushes hdrs out, continuing across partial sends, keeping
// pkts alive for the duration of the raw syscalls.
func (b *mmsgBatch) sendmmsg(hdrs []mmsghdr, pkts [][]byte) error {
	for len(hdrs) > 0 {
		b.sending = hdrs
		err := b.rc.Write(b.send)
		runtime.KeepAlive(b)
		runtime.KeepAlive(pkts)
		if err != nil {
			return err
		}
		if b.sendErrno != 0 {
			return b.sendErrno
		}
		hdrs = hdrs[b.sent:]
	}
	return nil
}

// newBatch picks the fastest batched I/O the platform offers.
func newBatch(conn *net.UDPConn, size int) Batch {
	if size <= 1 {
		return newLoopBatch(conn)
	}
	if mb, err := newMmsgBatch(conn, size); err == nil {
		return mb
	}
	return newLoopBatch(conn)
}
