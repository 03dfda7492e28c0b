package transport

import "net"

// RawPipe returns a conn and the raw byte stream at its far end, over
// Pair's pipe: what is written to raw is what the conn receives.
func RawPipe() (c Conn, raw net.Conn) {
	ab, ba := newPipe(), newPipe()
	return newTCPConn(&pipeConn{r: ba, w: ab}), &pipeConn{r: ab, w: ba}
}
