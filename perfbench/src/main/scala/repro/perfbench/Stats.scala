package repro.perfbench

/** Order statistics of timing samples. */
object Stats {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val m = s.length / 2
      if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
    }
}
