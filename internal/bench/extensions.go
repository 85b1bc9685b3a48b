package bench

// extDataCenter evaluates the paper's stated future work — commercial
// data-center applications on the substrate — with a memcached-style
// key-value workload: persistent connections, read-heavy GET/SET mix,
// latency and throughput against kernel TCP.
func extDataCenter() Figure {
	return sweep(Figure{
		ID:        "ext-datacenter",
		Title:     "Data-center key-value store (paper's future work)",
		XLabel:    "value bytes",
		YLabel:    "avg op latency (us)",
		PaperNote: "Section 8: 'utilizing and evaluating the proposed substrate for a range of commercial applications in the Data center environment'",
	}, []int{64, 1024, 8192, 32 << 10},
		on("DataStreaming", substrate(4, dsDAUQ()), kv),
		on("TCP", tcp(4), kv))
}
