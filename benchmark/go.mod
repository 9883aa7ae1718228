module april/benchmark

go 1.22

require april v0.0.0

replace april => ../
