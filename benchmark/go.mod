module dapes/benchmark

go 1.24

require dapes v0.0.0

replace dapes => ../
