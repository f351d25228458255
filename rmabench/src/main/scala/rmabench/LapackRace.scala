package rmabench

import scala.util.control.NonFatal

import repro.core.RmaConfig
import repro.matrix.ColMatrix

/** Probe of the race in F2J LAPACK's lazy machine constants (`dlamch`).
  *
  * {{{
  * LapackRace --seed <n>
  * }}}
  *
  * In a fresh JVM, the first LAPACK calls come from the program's TSQR, which
  * makes them on `nproc` threads at once, as it does in a `qqr_tall` query.
  * Prints one JSON line with the outcome and the machine epsilon that the
  * race left behind. The race can leave the constants wrong, and it can leave
  * `dlarfg` scaling a column forever, so a QR that has not finished within
  * [[TimeoutSeconds]] is reported as hung and the JVM exits anyway.
  *
  * The measured JVM initialises the constants on one thread before it starts
  * (see [[Main]]), so this probe, run in its own JVM before each run, is where
  * the race stays visible.
  */
object LapackRace {
  val Rows = 66000
  val Cols = 20
  val TimeoutSeconds = 10

  def main(argv: Array[String]): Unit = {
    val seed = argv match {
      case Array("--seed", s) => s.toLong
      case _ => System.err.println("usage: LapackRace --seed <n>"); sys.exit(2)
    }
    val rnd = new java.util.Random(seed)
    val a = ColMatrix(Array.fill(Cols)(Array.fill(Rows)(rnd.nextGaussian())))
    @volatile var outcome = "hung"
    val t = new Thread(() =>
      outcome =
        try { RmaConfig.default.backend.qr(a); "ok" }
        catch { case NonFatal(e) => s"threw $e" })
    t.setDaemon(true)
    t.start()
    t.join(TimeoutSeconds * 1000L)
    val eps = dev.ludovic.netlib.lapack.LAPACK.getInstance().dlamch("e")
    println(Json.obj("first_lapack_use" -> s"TSQR of $Rows x $Cols", "outcome" -> outcome,
      "dlamch_eps" -> (if (eps.isNaN || eps.isInfinite) eps.toString else eps),
      "dlamch_eps_is_half_ulp" -> (eps == Math.ulp(1.0) / 2)))
    // TSQR's pool threads are not daemons; a hung one must not keep the JVM.
    sys.exit(0)
  }
}
