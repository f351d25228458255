package rmabench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

import repro.SynthData
import repro.core.{Constructors, Rma, RmaConfig, RmaSql}
import repro.core.Constructors.SplitRelation
import repro.matrix.ColMatrix

/** One benchmark workload: a SQL query over seeded inputs, a check of its
  * answer that does not reuse the kernel it checks, and the same query
  * composed from the layers' public calls for the traced run.
  *
  * The composed query calls each layer exactly as [[Rma]] does, with default
  * arguments, and records one top-level span per call: `split`
  * (`Constructors.collectSplit`), `kernel` (the `MatrixBackend` method),
  * `build` (the relation constructor), `op` (a whole `Rma` call) and
  * `consume` (the rest of the SQL over the RMA result).
  */
abstract class Workload(val name: String) {

  /** The FROM-clause RMA expression. */
  def source: String

  /** The query, with `from` as its FROM source. */
  def sql(from: String): String

  /** Application cells of the base relations, each counted once. */
  def cells: Long

  /** Generate, persist and count the inputs from `seed`, register them as
    * views, and compute the reference answer with plain Spark SQL.
    */
  def setup(spark: SparkSession, seed: Long): Unit

  /** `None` when `rows` is the query's answer, else what is wrong with it. */
  def check(rows: Array[Row]): Option[String]

  /** The query composed from public calls, one span per layer call. */
  def traced(spark: SparkSession, t: Tracer): Array[Row]

  /** A wrong answer of the kind the check exists to catch. */
  def corrupted(spark: SparkSession): Array[Row]

  protected var inputs: Seq[DataFrame] = Nil

  def teardown(): Unit = { inputs.foreach(_.unpersist(blocking = true)); inputs = Nil }

  /** The query through the SQL surface with the default `RmaConfig`, result
    * collected on the driver.
    */
  def run(spark: SparkSession): Array[Row] = RmaSql.sql(spark, sql(source)).collect()

  protected def persist(view: String, df: DataFrame): Unit = {
    val p = df.cache()
    p.count()
    p.createOrReplaceTempView(view)
    inputs :+= p
  }

  protected def split(t: Tracer, df: DataFrame, order: Seq[String]): SplitRelation =
    t.span("split") { s =>
      val sp = Constructors.collectSplit(df, order)
      s.cells = sp.matrix.nRows.toLong * sp.matrix.nCols
      sp
    }

  protected def kernel[A](t: Tracer, flops: Double)(f: => A): A =
    t.span("kernel") { s => s.flops = flops; f }

  protected def build(t: Tracer)(f: => DataFrame): DataFrame = t.span("build")(_ => f)

  protected def consume(spark: SparkSession, t: Tracer, rel: DataFrame): Array[Row] =
    t.span("consume")(_ => query(spark, rel))

  /** The rest of the SQL over an RMA result, as [[RmaSql]] runs it. */
  protected def query(spark: SparkSession, rel: DataFrame): Array[Row] = {
    rel.createOrReplaceTempView(Workload.ResultView)
    spark.sql(sql(Workload.ResultView)).collect()
  }

  protected def relErr(got: Double, want: Double): Double =
    math.abs(got - want) / math.max(math.abs(want), Double.MinPositiveValue)
}

object Workload {
  val ResultView = "rmabench_result"

  /** Input sizes: a query takes one to two seconds on a 4-core host, so a
    * run of ten seconds holds enough samples for a median.
    */
  def apply(name: String): Workload = name match {
    case "qqr_tall"   => new QqrTall(rows = 66000, cols = 20)
    case "dsv_tall"   => new DsvTall(rows = 6000, cols = 150)
    case "add_select" => new AddSelect(rows = 100000, cols = 10)
    case other => throw new IllegalArgumentException(s"unknown workload '$other'")
  }

  val names: Seq[String] = Seq("qqr_tall", "dsv_tall", "add_select")

  /** `f(1), ..., f(n)`, comma-separated. */
  def csv(n: Int)(f: Int => String): String = (1 to n).map(f).mkString(", ")
}

/** Tall QR through TSQR (rows >= 65536); the result is a rows x cols
  * driver-local relation, so building and consuming it dominate.
  */
final class QqrTall(rows: Long, cols: Int) extends Workload("qqr_tall") {
  require(rows >= 65536, "qqr_tall must take the TSQR path")
  val source = "QQR(r BY k)"
  def sql(from: String): String =
    s"SELECT count(*), ${Workload.csv(cols)(j => s"sum(a$j * a$j)")}, sum(k * a1) FROM $from"
  def cells: Long = rows * cols

  /** Σ k·q₁ = Σ k·a₁ / ‖a₁‖, since diag(R) >= 0 makes q₁ = a₁ / ‖a₁‖. */
  private var kq1 = Double.NaN

  def setup(spark: SparkSession, seed: Long): Unit = {
    persist("r", SynthData.wideRelation(spark, rows, cols, seed = seed))
    kq1 = spark.sql("SELECT sum(k * a1) / sqrt(sum(a1 * a1)) FROM r").head().getDouble(0)
  }

  def check(out: Array[Row]): Option[String] =
    if (out.length != 1) Some(s"${out.length} result rows, want 1")
    else {
      val r = out.head
      if (r.getLong(0) != rows) Some(s"count ${r.getLong(0)}, want $rows")
      else (1 to cols).find(j => math.abs(r.getDouble(j) - 1.0) > 1e-8)
        .map(j => s"column a$j has squared norm ${r.getDouble(j)}, want 1")
        .orElse(Option.when(relErr(r.getDouble(cols + 1), kq1) > 1e-9)(
          s"sum(k * q1) = ${r.getDouble(cols + 1)}, want $kq1: rows and keys misaligned"))
    }

  def traced(spark: SparkSession, t: Tracer): Array[Row] = {
    val sp = split(t, spark.table("r"), Seq("k"))
    val (n, k) = (sp.matrix.nRows.toDouble, sp.matrix.nCols.toDouble)
    // Householder QR with the thin Q formed: 4nk² - 4k³/3.
    val q = kernel(t, 4 * n * k * k - 4 * k * k * k / 3)(RmaConfig.default.backend.qr(sp.matrix)._1)
    val rel = build(t)(Constructors.withOrderPart(spark, sp.orderFields, sp.orderRows, q, sp.appCols))
    consume(spark, t, rel)
  }

  /** Q with its rows shifted by one against the keys. */
  def corrupted(spark: SparkSession): Array[Row] = {
    val sp = Constructors.collectSplit(spark.table("r"), Seq("k"))
    val q = RmaConfig.default.backend.qr(sp.matrix)._1
    val shifted = sp.orderRows.tail :+ sp.orderRows.head
    query(spark, Constructors.withOrderPart(spark, sp.orderFields, shifted, q, sp.appCols))
  }
}

/** Singular values of a tall matrix: the kernel does most of the work and
  * the result is only cols x cols.
  */
final class DsvTall(rows: Long, cols: Int) extends Workload("dsv_tall") {
  val source = "DSV(r BY k)"
  def sql(from: String): String = s"SELECT * FROM $from"
  def cells: Long = rows * cols

  /** ‖A‖²_F = Σ σ². */
  private var frobenius2 = Double.NaN

  def setup(spark: SparkSession, seed: Long): Unit = {
    persist("r", SynthData.wideRelation(spark, rows, cols, seed = seed))
    frobenius2 = spark.sql(
      s"SELECT ${(1 to cols).map(j => s"sum(a$j * a$j)").mkString(" + ")} FROM r").head().getDouble(0)
  }

  def check(out: Array[Row]): Option[String] = {
    if (out.length != cols) return Some(s"${out.length} result rows, want $cols")
    val fields = out.head.schema.fieldNames
    val diag = out.map(r => fields.indexOf(r.getString(0)))
    if (diag.exists(_ < 1) || diag.distinct.length != cols)
      return Some("column C does not name each application column once")
    if (out.zip(diag).exists { case (r, c) => (1 to cols).exists(j => j != c && r.getDouble(j) != 0.0) })
      return Some("result is not diagonal")
    // σ in application-column order, whatever order the rows came in.
    val sigma = new Array[Double](cols)
    out.zip(diag).foreach { case (r, c) => sigma(c - 1) = r.getDouble(c) }
    if (sigma.exists(_ < 0)) Some("negative singular value")
    else if ((1 until cols).exists(i => sigma(i - 1) < sigma(i))) Some("singular values not descending")
    else Option.when(relErr(sigma.map(s => s * s).sum, frobenius2) > 1e-9)(
      s"sum of squared singular values ${sigma.map(s => s * s).sum}, want squared Frobenius norm $frobenius2")
  }

  def traced(spark: SparkSession, t: Tracer): Array[Row] = {
    val sp = split(t, spark.table("r"), Seq("k"))
    val (n, k) = (sp.matrix.nRows.toDouble, sp.matrix.nCols.toDouble)
    // Thin SVD with both factors (R-SVD): 6nk² + 20k³.
    val sigma = kernel(t, 6 * n * k * k + 20 * k * k * k)(RmaConfig.default.backend.svd(sp.matrix)._2)
    val rel = build(t)(Constructors.withSchemaCast(spark, sp.appCols, ColMatrix.diag(sigma), sp.appCols))
    consume(spark, t, rel)
  }

  /** The answer with its smallest singular value dropped. */
  def corrupted(spark: SparkSession): Array[Row] = run(spark).dropRight(1)
}

/** Element-wise add on the default distributed path, then a filter and an
  * aggregate: no driver collect and no kernel.
  */
final class AddSelect(rows: Long, cols: Int) extends Workload("add_select") {
  val source = "ADD(r BY k, s BY k2)"
  def sql(from: String): String =
    s"SELECT count(*), ${Workload.csv(cols)(j => s"sum(a$j)")} FROM $from WHERE a1 > 5000000"
  def cells: Long = 2 * rows * cols

  /** Count and sums of the same rows from a plain key join: both inputs
    * hold the keys 0..rows-1, so rank i of r pairs with rank i of s. The
    * values are integers, so the sums are exact.
    */
  private var expected: Row = _

  def setup(spark: SparkSession, seed: Long): Unit = {
    persist("r", SynthData.wideRelation(spark, rows, cols, seed = seed))
    persist("s", SynthData.wideRelation(spark, rows, cols, seed = seed + 1000, keyName = "k2"))
    expected = spark.sql(
      s"""SELECT count(*), ${Workload.csv(cols)(j => s"sum(r.a$j + s.a$j)")}
         |FROM r JOIN s ON r.k = s.k2 WHERE r.a1 + s.a1 > 5000000""".stripMargin).head()
  }

  def check(out: Array[Row]): Option[String] =
    if (out.length != 1) Some(s"${out.length} result rows, want 1")
    else Option.when(out.head != expected)(s"got ${out.head}, want $expected")

  def traced(spark: SparkSession, t: Tracer): Array[Row] = {
    val rel = t.span("op")(_ => Rma.add(spark.table("r"), Seq("k"), spark.table("s"), Seq("k2")))
    consume(spark, t, rel)
  }

  /** The answer with its count off by one. */
  def corrupted(spark: SparkSession): Array[Row] = run(spark).map { r =>
    Row.fromSeq((r.getLong(0) + 1) +: r.toSeq.tail)
  }
}
