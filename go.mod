module github.com/splicer-pcn/splicer

go 1.24

// The 1.24 language line would also turn MPTCP on for every listener
// (multipathtcp=2). On loopback that cost splicerd ≈10 % saturation
// throughput in the repo benchmark and buys nothing, so the toolchain bump
// keeps the socket type it had.
godebug multipathtcp=0
