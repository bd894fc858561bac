module edgeswitch/cmd/esbench

go 1.22

require edgeswitch v0.0.0

replace edgeswitch => ../..
