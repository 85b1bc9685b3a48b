package bench

import "repro/internal/core"

// webCredits is the credit size the paper uses for the web server
// experiments (Section 7.4: "we have used a credit size of 4" — larger
// windows waste time posting and garbage-collecting descriptors that a
// one-request connection never uses).
const webCredits = 4

func webOpts() *core.Options {
	o := core.DefaultOptions()
	o.Credits = webCredits
	return &o
}

// Fig14FTP reproduces Figure 14: FTP bandwidth from RAM disk to RAM
// disk over TCP and over the substrate in both modes.
func Fig14FTP(fileSizes []int) Figure {
	return sweep(Figure{
		ID:        "fig14",
		Title:     "FTP performance (RAM disk to RAM disk)",
		XLabel:    "file bytes",
		YLabel:    "bandwidth (Mbps)",
		PaperNote: "substrate ~2x TCP; DS and DG overlap (file-system overhead masks the copy difference); below the raw socket peak",
	}, fileSizes,
		on("DataStreaming", substrate(2, dsDAUQ()), ftp),
		on("Datagram", substrate(2, dg()), ftp),
		on("TCP", tcp(2), ftp))
}

// webFigure runs the web experiment for the given keep-alive depth.
func webFigure(id, title, note string, respSizes []int, reqsPerConn int) Figure {
	return sweep(Figure{
		ID:        id,
		Title:     title,
		XLabel:    "response bytes",
		YLabel:    "avg response time (us)",
		PaperNote: note,
	}, respSizes,
		on("DataStreaming", substrate(4, webOpts()), web(reqsPerConn)),
		on("TCP", tcp(4), web(reqsPerConn)))
}

// Fig15WebHTTP10 reproduces Figure 15: average response time with one
// request per connection (HTTP/1.0), one server and three clients.
func Fig15WebHTTP10(respSizes []int) Figure {
	return webFigure("fig15",
		"Web server average response time (HTTP/1.0)",
		"substrate up to 6x lower response time; TCP pays 200-250us of kernel connection setup per request",
		respSizes, 1)
}

// Fig16WebHTTP11 reproduces Figure 16: up to eight requests per
// connection (HTTP/1.1) amortize TCP's connection cost; the substrate
// still wins.
func Fig16WebHTTP11(respSizes []int) Figure {
	return webFigure("fig16",
		"Web server average response time (HTTP/1.1, 8 requests/connection)",
		"TCP's deficit shrinks with keep-alive but the substrate remains ahead",
		respSizes, 8)
}

// Fig17Matmul reproduces Figure 17: 4-node distributed matrix
// multiplication wall time (the application that exercises select()).
func Fig17Matmul(ns []int) Figure {
	return sweep(Figure{
		ID:        "fig17",
		Title:     "Matrix multiplication on a 4-node cluster",
		XLabel:    "matrix N",
		YLabel:    "time (ms)",
		PaperNote: "substrate beats TCP; the gap narrows as O(N^3) compute dominates O(N^2) communication",
	}, ns,
		on("DataStreaming", substrate(4, dsDAUQ()), matmul),
		on("TCP", tcp(4), matmul))
}
