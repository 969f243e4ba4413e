//go:build !(linux && (amd64 || arm64))

package serve

import (
	"errors"
	"net"
)

// ReusePortAvailable reports whether this platform supports binding
// several sockets to one address with SO_REUSEPORT.
const ReusePortAvailable = false

func ListenUDPReusePort(string) (*net.UDPConn, error) {
	return nil, errors.ErrUnsupported
}
