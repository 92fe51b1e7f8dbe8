module ngfix/benchmark

go 1.22

require ngfix v0.0.0

replace ngfix => ../
