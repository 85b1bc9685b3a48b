// Package apps contains the paper's evaluation applications — FTP, a web
// server (HTTP/1.0 and HTTP/1.1), and a distributed matrix
// multiplication — written once against the generic sockets API and the
// fd-tracking descriptor layer, so each runs unmodified over kernel TCP
// or the EMP substrate.
package apps

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sock"
)

// FTP (Section 7.3): a control connection carries the retrieve request
// (client's data port + file name); the server opens the file from its
// RAM disk through the fd-tracking layer — mixing file reads and socket
// writes through the same overloaded calls — dials the client's data
// port (active mode), and streams the file in 64 KB chunks. The client
// writes the stream to its own RAM disk. File-system overhead on both
// sides is why FTP lands below the raw socket bandwidth.

// ftpRequest is the fixed-size control message payload.
type ftpRequest struct {
	// Op is "RETR" (download) or "STOR" (upload).
	Op       string
	DataPort int
	Name     string
	// Size is the upload length for STOR.
	Size int
}

// ftpRequestBytes is the on-wire size of the control request.
const ftpRequestBytes = 64

// ftpChunk is the server's file-read / socket-write granularity.
const ftpChunk = 64 << 10

// FTPResult reports one transfer.
type FTPResult struct {
	Bytes   int
	Elapsed sim.Duration
	Err     error
}

// Mbps reports the achieved application bandwidth.
func (r FTPResult) Mbps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / r.Elapsed.Seconds() / 1e6
}

// ftpServer serves `transfers` retrieve requests on ctrlPort, then
// returns. It runs entirely through the node's descriptor space.
func ftpServer(p *sim.Proc, node *cluster.Node, ctrlPort, transfers int) error {
	fd := node.FD
	lfd, err := fd.Listen(p, ctrlPort, 8)
	if err != nil {
		return err
	}
	defer fd.Close(p, lfd)
	for t := 0; t < transfers; t++ {
		ctrl, err := fd.Accept(p, lfd)
		if err != nil {
			return err
		}
		n, objs, err := fd.Read(p, ctrl, ftpRequestBytes)
		if err != nil || n < ftpRequestBytes || len(objs) == 0 {
			fd.Close(p, ctrl)
			return fmt.Errorf("ftp: bad request (n=%d err=%v)", n, err)
		}
		req, ok := objs[0].(*ftpRequest)
		if !ok {
			fd.Close(p, ctrl)
			return fmt.Errorf("ftp: malformed request object")
		}
		switch req.Op {
		case "STOR":
			err = ftpRecvFile(p, node, req)
		default: // RETR
			err = ftpSendFile(p, node, req)
		}
		status := "226 ok"
		if err != nil {
			status = "550 failed"
		}
		fd.Write(p, ctrl, 32, status)
		fd.Close(p, ctrl)
		if err != nil {
			return err
		}
	}
	return nil
}

// ftpSendFile streams one file to the client's data port.
func ftpSendFile(p *sim.Proc, node *cluster.Node, req *ftpRequest) error {
	fd := node.FD
	ffd, err := fd.Open(p, req.Name)
	if err != nil {
		return err
	}
	defer fd.Close(p, ffd)
	// Active mode: connect back to the client's data port. The request
	// carries the client address implicitly via the control connection;
	// here the data port encodes (addr, port) because every node sees
	// the same fabric address space.
	dataFd, err := fd.Connect(p, sock.Addr(req.DataPort>>16), req.DataPort&0xFFFF)
	if err != nil {
		return err
	}
	defer fd.Close(p, dataFd)
	for {
		n, objs, err := fd.Read(p, ffd, ftpChunk)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		var obj any
		if len(objs) > 0 {
			obj = objs[0]
		}
		if _, err := fd.Write(p, dataFd, n, obj); err != nil {
			return err
		}
	}
}

// ftpRecvFile accepts an upload: connect to the client's data port and
// write the incoming stream to the local RAM disk.
func ftpRecvFile(p *sim.Proc, node *cluster.Node, req *ftpRequest) error {
	fd := node.FD
	out := fd.Create(p, req.Name)
	defer fd.Close(p, out)
	dataFd, err := fd.Connect(p, sock.Addr(req.DataPort>>16), req.DataPort&0xFFFF)
	if err != nil {
		return err
	}
	defer fd.Close(p, dataFd)
	got := 0
	for got < req.Size {
		n, objs, err := fd.Read(p, dataFd, ftpChunk)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		var obj any
		if len(objs) > 0 {
			obj = objs[0]
		}
		fd.Write(p, out, n, obj)
		got += n
	}
	if got != req.Size {
		return fmt.Errorf("ftp: upload truncated at %d of %d", got, req.Size)
	}
	return nil
}

// ftpPut uploads localName from the client's RAM disk to name on the
// server and reports the transfer.
func ftpPut(p *sim.Proc, node *cluster.Node, server sock.Addr, ctrlPort int, localName, name string, dataPort int) FTPResult {
	fd := node.FD
	size, ok := node.FS.Stat(localName)
	if !ok {
		return FTPResult{Err: fmt.Errorf("ftp: no local file %q", localName)}
	}
	start := p.Now()
	lfd, err := fd.Listen(p, dataPort, 1)
	if err != nil {
		return FTPResult{Err: err}
	}
	defer fd.Close(p, lfd)
	ctrl, err := fd.Connect(p, server, ctrlPort)
	if err != nil {
		return FTPResult{Err: err}
	}
	defer fd.Close(p, ctrl)
	req := &ftpRequest{Op: "STOR", DataPort: int(node.Net.Addr())<<16 | dataPort, Name: name, Size: size}
	if _, err := fd.Write(p, ctrl, ftpRequestBytes, req); err != nil {
		return FTPResult{Err: err}
	}
	data, err := fd.Accept(p, lfd)
	if err != nil {
		return FTPResult{Err: err}
	}
	src, err := fd.Open(p, localName)
	if err != nil {
		fd.Close(p, data)
		return FTPResult{Err: err}
	}
	sent := 0
	for {
		n, objs, err := fd.Read(p, src, ftpChunk)
		if err != nil {
			return FTPResult{Bytes: sent, Err: err}
		}
		if n == 0 {
			break
		}
		var obj any
		if len(objs) > 0 {
			obj = objs[0]
		}
		if _, err := fd.Write(p, data, n, obj); err != nil {
			return FTPResult{Bytes: sent, Err: err}
		}
		sent += n
	}
	fd.Close(p, data)
	fd.Close(p, src)
	// Completion status on the control connection.
	fd.Read(p, ctrl, 32)
	return FTPResult{Bytes: sent, Elapsed: p.Now().Sub(start)}
}

// ftpGet retrieves name from the server into localName on the client's
// RAM disk and reports the transfer.
func ftpGet(p *sim.Proc, node *cluster.Node, server sock.Addr, ctrlPort int, name, localName string, dataPort int) FTPResult {
	fd := node.FD
	start := p.Now()
	lfd, err := fd.Listen(p, dataPort, 1)
	if err != nil {
		return FTPResult{Err: err}
	}
	ctrl, err := fd.Connect(p, server, ctrlPort)
	if err != nil {
		fd.Close(p, lfd)
		return FTPResult{Err: err}
	}
	req := &ftpRequest{DataPort: int(node.Net.Addr())<<16 | dataPort, Name: name}
	if _, err := fd.Write(p, ctrl, ftpRequestBytes, req); err != nil {
		fd.Close(p, lfd)
		fd.Close(p, ctrl)
		return FTPResult{Err: err}
	}
	data, err := fd.Accept(p, lfd)
	if err != nil {
		fd.Close(p, lfd)
		fd.Close(p, ctrl)
		return FTPResult{Err: err}
	}
	out := fd.Create(p, localName)
	total := 0
	for {
		n, objs, err := fd.Read(p, data, ftpChunk)
		if err != nil {
			return FTPResult{Bytes: total, Err: err}
		}
		if n == 0 {
			break
		}
		var obj any
		if len(objs) > 0 {
			obj = objs[0]
		}
		fd.Write(p, out, n, obj)
		total += n
	}
	// Completion status on the control connection.
	fd.Read(p, ctrl, 32)
	fd.Close(p, data)
	fd.Close(p, ctrl)
	fd.Close(p, lfd)
	fd.Close(p, out)
	return FTPResult{Bytes: total, Elapsed: p.Now().Sub(start)}
}

// RunFTP builds the fixture file on node 0, transfers it to node 1, and
// returns the result. The cluster must have at least two nodes.
func RunFTP(c *cluster.Cluster, fileSize int) FTPResult {
	const ctrlPort = 21
	c.Nodes[0].FS.Create("data.bin", fileSize, "file-payload")
	var res FTPResult
	var srvErr error
	c.Eng.Spawn("ftp-server", func(p *sim.Proc) {
		srvErr = ftpServer(p, c.Nodes[0], ctrlPort, 1)
	})
	c.Eng.Spawn("ftp-client", func(p *sim.Proc) {
		p.Sleep(20 * sim.Microsecond)
		res = ftpGet(p, c.Nodes[1], c.Addr(0), ctrlPort, "data.bin", "copy.bin", 5000)
	})
	c.Run(cluster.RunLimit)
	if res.Err == nil && srvErr != nil {
		res.Err = srvErr
	}
	if res.Err == nil && res.Bytes != fileSize {
		res.Err = fmt.Errorf("ftp: transferred %d of %d bytes", res.Bytes, fileSize)
	}
	return res
}
