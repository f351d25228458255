package repro.core

import org.apache.spark.sql.types.{DoubleType, StringType}

/** `RmaSql.sql` registers each RMA result as a temp view only while Spark
  * analyses the surrounding query; it must not stay in the session catalogue.
  */
class RmaSqlViewSpec extends RmaFixtures {

  override def beforeAll(): Unit = {
    super.beforeAll()
    weather.createOrReplaceTempView("view_r")
    weatherLate.createOrReplaceTempView("view_rlate")
    makeDf(Seq("m" -> StringType, "x" -> DoubleType), Seq(Seq("s1", 2.0), Seq("s2", 3.0)))
      .createOrReplaceTempView("view_s")
  }

  private def rmaViews: Seq[String] =
    spark.catalog.listTables().collect().map(_.name).filter(_.startsWith("__rma_")).toSeq

  test("queries leave no __rma_ temp view behind and their results stay usable") {
    val inv = RmaSql.sql(spark, "SELECT * FROM INV(view_rlate BY T)")
    val mmu = RmaSql.sql(spark, "SELECT T, x FROM MMU(view_r BY T, view_s BY m) WHERE T > '6am'")
    assert(rmaViews.isEmpty, rmaViews)
    assertDfClose(inv, Seq(
      Seq("7am", -5.0 / 26, 7.0 / 26),
      Seq("8am", 8.0 / 26, -6.0 / 26)))
    assertDfClose(mmu, Seq(Seq("7am", 33.0), Seq("8am", 31.0)))
  }
}
