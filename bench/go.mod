module selfserv/bench

go 1.24

require selfserv v0.0.0

replace selfserv => ../
