package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.{DoubleType, StringType}

/** Every operation's result origins follow from its shape type alone (paper
  * Tables 1 and 3). Table 1 and the origin rules are written out here by
  * hand; each of the 19 ops runs through the SQL surface on small fixtures.
  */
class Table1OriginsSpec extends RmaFixtures {
  import Dim._

  private val table1: Map[String, ShapeType] = Map(
    "usv" -> ShapeType(R1, R1), "opd" -> ShapeType(R1, R2),
    "inv" -> ShapeType(R1, C1), "evc" -> ShapeType(R1, C1),
    "chf" -> ShapeType(R1, C1), "qqr" -> ShapeType(R1, C1),
    "mmu" -> ShapeType(R1, C2), "evl" -> ShapeType(R1, One),
    "tra" -> ShapeType(C1, R1), "rqr" -> ShapeType(C1, C1),
    "dsv" -> ShapeType(C1, C1), "vsv" -> ShapeType(C1, C1),
    "cpd" -> ShapeType(C1, C2), "sol" -> ShapeType(C1, C2),
    "emu" -> ShapeType(RStar, CStar), "add" -> ShapeType(RStar, CStar),
    "sub" -> ShapeType(RStar, CStar),
    "det" -> ShapeType(One, One), "rnk" -> ShapeType(One, One))

  private val binary = Set("mmu", "opd", "cpd", "sol", "add", "sub", "emu")

  // r: SPD application part (a1, a2, a3) keyed by k, rows not in key order.
  private lazy val r: DataFrame = makeDf(
    Seq("k" -> StringType, "a1" -> DoubleType, "a2" -> DoubleType, "a3" -> DoubleType),
    Seq(Seq("r2", 1.0, 3.0, 1.0), Seq("r3", 0.0, 1.0, 2.0), Seq("r1", 4.0, 1.0, 0.0)))
  // s: same shape as r, keyed by m.
  private lazy val s: DataFrame = makeDf(
    Seq("m" -> StringType, "b1" -> DoubleType, "b2" -> DoubleType, "b3" -> DoubleType),
    Seq(Seq("s3", 2.0, 0.0, 1.0), Seq("s1", 1.0, 2.0, 0.0), Seq("s2", 0.0, 1.0, 3.0)))

  override def beforeAll(): Unit = {
    super.beforeAll()
    r.createOrReplaceTempView("t1_r")
    s.createOrReplaceTempView("t1_s")
  }

  /** Leading attributes and the tuples they hold, per row dimension. */
  private def rowOrigin(op: String, d: Dim): (Seq[String], Set[Seq[String]]) = d match {
    case R1    => (Seq("k"), Set(Seq("r1"), Seq("r2"), Seq("r3")))
    case RStar => (Seq("k", "m"), Set(Seq("r1", "s1"), Seq("r2", "s2"), Seq("r3", "s3")))
    case C1    => (Seq("C"), Set(Seq("a1"), Seq("a2"), Seq("a3")))
    case One   => (Seq("C"), Set(Seq(op)))
    case other => fail(s"$op: $other is not a row dimension")
  }

  /** Remaining attribute names, per column dimension. */
  private def colOrigin(op: String, d: Dim): Seq[String] = d match {
    case C1 | CStar => Seq("a1", "a2", "a3")
    case C2         => Seq("b1", "b2", "b3")
    case R1         => Seq("r1", "r2", "r3")
    case R2         => Seq("s1", "s2", "s3")
    case One        => Seq(op)
    case other      => fail(s"$op: $other is not a column dimension")
  }

  test("ShapeType.ofOp is paper Table 1") {
    assert(ShapeType.ofOp == table1)
  }

  for {
    (op, shape) <- table1.toSeq.sortBy(_._1)
    (mode, cfg) <- Seq("default" -> RmaConfig.default,
                       "collect" -> RmaConfig(distributedElementwise = false))
    if mode == "default" || shape.rows == RStar
  } test(s"$op ${shape.rows}/${shape.cols} ($mode): origins follow the shape type") {
    val args = if (binary(op)) "t1_r BY k, t1_s BY m" else "t1_r BY k"
    val res = RmaSql.expr(spark, s"${op.toUpperCase}($args)", cfg)
    val (lead, tuples) = rowOrigin(op, shape.rows)
    assert(res.columns.toSeq == lead ++ colOrigin(op, shape.cols))
    val got = res.select(lead.head, lead.tail: _*).collect().map(_.toSeq.map(_.toString)).toSeq
    assert(got.length == tuples.size)
    assert(got.toSet == tuples)
  }
}
