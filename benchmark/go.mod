module tokenpicker/benchmark

go 1.24

require tokenpicker v0.0.0

replace tokenpicker => ../
