//go:build linux && (amd64 || arm64)

package serve

import (
	"context"
	"net"
	"syscall"
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
	lc := net.ListenConfig{Control: func(_, _ string, rc syscall.RawConn) error {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		}); err != nil {
			return err
		}
		return serr
	}}
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	return pc.(*net.UDPConn), nil
}
