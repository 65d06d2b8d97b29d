(** Summary statistics and fit-quality metrics. *)

(** [mean v] is the arithmetic mean; raises [Invalid_argument] on empty
    input. *)
val mean : float array -> float

(** [stddev v] is the population standard deviation (divide by [n]). *)
val stddev : float array -> float

(** [rmse observed predicted] is the root-mean-square error between two
    equal-length sample arrays. *)
val rmse : float array -> float array -> float

(** [r_squared observed predicted] is the coefficient of determination;
    1.0 is a perfect fit. Returns [nan] when the observations have zero
    variance. *)
val r_squared : float array -> float array -> float

(** [linear_regression xs ys] is [(slope, intercept)] of the least-squares
    line through the points. Requires at least two samples with distinct
    [xs]. *)
val linear_regression : float array -> float array -> float * float
